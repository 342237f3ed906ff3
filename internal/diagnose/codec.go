package diagnose

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"

	"dft/internal/fault"
	"dft/internal/logic"
)

// Binary dictionary format, version 1, little-endian throughout:
//
//	magic    [8]byte  "DFTDICT\x01"
//	netsha   [32]byte sha256 of the canonical netlist
//	flags    uint32   bit 0: full tier present
//	nFaults  uint32
//	nPats    uint32
//	nInputs  uint32
//	nOutputs uint32
//	faults   nFaults × { gate int32, pin int32, sa uint8 }
//	patterns nBlocks × nInputs uint64   (packed pattern blocks)
//	rows     nFaults × patWords uint64  (compact pass/fail tier)
//	full     nFaults × nPats × poWords uint64   (iff flags bit 0)
//	check    uint64   fnv64a over every preceding byte
//
// The trailing checksum turns a truncated or bit-flipped artifact into
// an explicit decode error rather than a silently wrong diagnosis.

var dictMagic = [8]byte{'D', 'F', 'T', 'D', 'I', 'C', 'T', 1}

// dictLimit bounds the decoded dimensions, and Decode grows every
// table only as its bytes arrive, so a corrupt header cannot provoke an
// allocation past what the input holds before the checksum is reached.
const dictLimit = 1 << 26

// readChunk is the most words Decode reads into a table at once.
const readChunk = 1 << 13

// hashedWriter tees writes into the running checksum.
type hashedWriter struct {
	w   io.Writer
	sum interface{ Write(p []byte) (int, error) }
}

func (hw *hashedWriter) Write(p []byte) (int, error) {
	hw.sum.Write(p)
	return hw.w.Write(p)
}

// Encode serializes the dictionary in the versioned binary format.
func (d *Dictionary) Encode(w io.Writer) error {
	sum := fnv.New64a()
	hw := &hashedWriter{w: w, sum: sum}
	put := func(v any) error { return binary.Write(hw, binary.LittleEndian, v) }

	var flags uint32
	if d.full != nil {
		flags |= 1
	}
	for _, v := range []any{
		dictMagic, d.NetSHA, flags,
		uint32(len(d.Faults)), uint32(d.NumPats),
		uint32(d.nInputs), uint32(d.numOuts),
	} {
		if err := put(v); err != nil {
			return err
		}
	}
	for _, f := range d.Faults {
		sa := uint8(0)
		if f.SA == logic.One {
			sa = 1
		}
		if err := put(struct {
			Gate, Pin int32
			SA        uint8
		}{int32(f.Gate), int32(f.Pin), sa}); err != nil {
			return err
		}
	}
	for bi := 0; bi < d.packed.NumBlocks(); bi++ {
		words, _ := d.packed.Block(bi)
		if err := put(words); err != nil {
			return err
		}
	}
	for _, row := range d.rows {
		if err := put(row); err != nil {
			return err
		}
	}
	for _, fr := range d.full {
		if err := put(fr); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, sum.Sum64())
}

// hashedReader tees reads into the running checksum.
type hashedReader struct {
	r   io.Reader
	sum interface{ Write(p []byte) (int, error) }
}

func (hr *hashedReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	if n > 0 {
		hr.sum.Write(p[:n])
	}
	return n, err
}

// Decode reads a dictionary back. The returned dictionary supports
// Lookup, Rank, Resolution and DistinguishingPattern immediately;
// call Attach with the original circuit before ObserveMachine or
// Diagnose. Truncation, a foreign magic, oversized dimensions and
// checksum mismatches are all explicit errors.
func Decode(r io.Reader) (*Dictionary, error) {
	sum := fnv.New64a()
	hr := &hashedReader{r: r, sum: sum}
	get := func(v any) error {
		if err := binary.Read(hr, binary.LittleEndian, v); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return fmt.Errorf("diagnose: truncated dictionary")
			}
			return err
		}
		return nil
	}

	var magic [8]byte
	if err := get(&magic); err != nil {
		return nil, err
	}
	if magic != dictMagic {
		return nil, fmt.Errorf("diagnose: bad magic %q (not a DFT dictionary, or wrong version)", magic[:])
	}
	d := &Dictionary{}
	var flags, nFaults, nPats, nInputs, nOutputs uint32
	for _, v := range []any{&d.NetSHA, &flags, &nFaults, &nPats, &nInputs, &nOutputs} {
		if err := get(v); err != nil {
			return nil, err
		}
	}
	if nFaults > dictLimit || nPats > dictLimit || nInputs > dictLimit || nOutputs > dictLimit {
		return nil, fmt.Errorf("diagnose: corrupt header (dimensions %d×%d exceed limit)", nFaults, nPats)
	}
	if nPats > 0 && nInputs == 0 {
		// Each pattern block would cost the body no bytes, so the
		// header alone could size the pattern table.
		return nil, fmt.Errorf("diagnose: corrupt header (%d patterns over no inputs)", nPats)
	}
	d.NumPats = int(nPats)
	d.nInputs = int(nInputs)
	d.numOuts = int(nOutputs)
	d.poWords = (int(nOutputs) + 63) / 64
	if stride := d.NumPats * d.poWords; flags&1 != 0 && stride > 0 && int(nFaults) > math.MaxInt/stride {
		return nil, fmt.Errorf("diagnose: corrupt header (full tier of %d×%d×%d words overflows)", nFaults, nPats, d.poWords)
	}

	d.Faults = make([]fault.Fault, 0, min(nFaults, readChunk))
	for range nFaults {
		var rec struct {
			Gate, Pin int32
			SA        uint8
		}
		if err := get(&rec); err != nil {
			return nil, err
		}
		sa := logic.Zero
		if rec.SA != 0 {
			sa = logic.One
		}
		d.Faults = append(d.Faults, fault.Fault{Gate: int(rec.Gate), Pin: int(rec.Pin), SA: sa})
	}

	nBlocks := (int(nPats) + 63) / 64
	d.packed = fault.NewPackedPatterns(int(nInputs))
	var blockWords []uint64
	for bi := 0; bi < nBlocks; bi++ {
		var err error
		if blockWords, err = readWords(get, blockWords[:0], int(nInputs)); err != nil {
			return nil, err
		}
		k := int(nPats) - bi*64
		if k > 64 {
			k = 64
		}
		d.packed.AppendBlock(blockWords, k)
	}

	patWords := detailWords(int(nPats))
	rowBacking, err := readWords(get, nil, int(nFaults)*patWords)
	if err != nil {
		return nil, err
	}
	d.rows = make([][]uint64, nFaults)
	for fi := range d.rows {
		d.rows[fi] = rowBacking[fi*patWords : (fi+1)*patWords : (fi+1)*patWords]
	}

	if flags&1 != 0 {
		stride := int(nPats) * d.poWords
		fullBacking, err := readWords(get, nil, int(nFaults)*stride)
		if err != nil {
			return nil, err
		}
		d.full = make([][]uint64, nFaults)
		for fi := range d.full {
			d.full[fi] = fullBacking[fi*stride : (fi+1)*stride : (fi+1)*stride]
		}
	}

	want := sum.Sum64()
	var check uint64
	if err := binary.Read(r, binary.LittleEndian, &check); err != nil {
		return nil, fmt.Errorf("diagnose: truncated dictionary (missing checksum)")
	}
	if check != want {
		return nil, fmt.Errorf("diagnose: dictionary checksum mismatch (corrupt or truncated)")
	}
	d.index()
	return d, nil
}

// readWords appends n words to dst, at most readChunk at a time, so the
// table grows only as fast as the input supplies it.
func readWords(get func(any) error, dst []uint64, n int) ([]uint64, error) {
	for n > 0 {
		k := min(n, readChunk)
		dst = slices.Grow(dst, k)
		if err := get(dst[len(dst) : len(dst)+k]); err != nil {
			return nil, err
		}
		dst, n = dst[:len(dst)+k], n-k
	}
	return dst, nil
}
