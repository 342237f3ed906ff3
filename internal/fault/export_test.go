package fault

// Hooks that let the external fuzz targets drive cpt's wide kernel.

// LoadWide loads blocks b0..b0+g-1 of pats side by side (loadWide) and
// returns their live-lane masks.
func (ps *ParallelSim) LoadWide(pats *PackedPatterns, b0, g int) [wideBlocks]uint64 {
	return ps.loadWide(pats, b0, g)
}

// FlipWide flips net n across the loaded group (flipWide).
func (ps *ParallelSim) FlipWide(n int, care [wideBlocks]uint64) [wideBlocks]uint64 {
	return ps.flipWide(int32(n), care)
}
