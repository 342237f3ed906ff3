package atpg

// PodemReference exposes the whole-circuit reference search to the
// external tests, which need fuzzdiff (an importer of this package).
var PodemReference = podemReference
