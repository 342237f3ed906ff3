package diagnose

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
)

func buildC17(t *testing.T, opt Options) *Dictionary {
	t.Helper()
	c := circuits.C17()
	d, err := Build(context.Background(), c, fault.Universe(c), exhaustive(5), opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, full := range []bool{false, true} {
		d := buildC17(t, Options{Full: full})
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("full=%v: %v", full, err)
		}
		if got.NumPats != d.NumPats || len(got.Faults) != len(d.Faults) || got.NetSHA != d.NetSHA {
			t.Fatalf("header mismatch: %d/%d pats, %d/%d faults", got.NumPats, d.NumPats, len(got.Faults), len(d.Faults))
		}
		for fi := range d.Faults {
			if got.Faults[fi] != d.Faults[fi] {
				t.Fatalf("fault %d: %v != %v", fi, got.Faults[fi], d.Faults[fi])
			}
			if !equalRow(got.Row(fi), d.Row(fi)) {
				t.Fatalf("row %d differs after round-trip", fi)
			}
		}
		if got.HasFull() != full {
			t.Fatalf("full tier presence %v, want %v", got.HasFull(), full)
		}
		if full {
			for fi := range d.Faults {
				for p := 0; p < d.NumPats; p++ {
					if !equalRow(got.FullResponse(fi, p), d.FullResponse(fi, p)) {
						t.Fatalf("full response (%d,%d) differs", fi, p)
					}
				}
			}
		}
		// The pattern set itself round-trips.
		want, have := d.Patterns(), got.Patterns()
		for i := range want {
			for j := range want[i] {
				if want[i][j] != have[i][j] {
					t.Fatalf("pattern %d bit %d differs", i, j)
				}
			}
		}
		// A decoded dictionary answers lookups without a circuit...
		if got.Attached() {
			t.Fatal("decoded dictionary claims to be attached")
		}
		res, ref := got.Resolution(), d.Resolution()
		if res != ref {
			t.Fatalf("resolution %+v != %+v after decode", res, ref)
		}
		// ...and simulates devices after Attach.
		if err := got.Attach(circuits.C17(), Options{}); err != nil {
			t.Fatal(err)
		}
		f := d.Faults[3]
		sig, err := got.ObserveMachine(f)
		if err != nil {
			t.Fatal(err)
		}
		hit := false
		for _, fi := range got.Lookup(sig) {
			if got.Faults[fi] == f {
				hit = true
			}
		}
		if !hit {
			t.Fatal("decoded+attached dictionary lost the true fault")
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	d := buildC17(t, Options{})
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xff
		if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("want bad-magic error, got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{4, 40, len(raw) / 2, len(raw) - 4} {
			if _, err := Decode(bytes.NewReader(raw[:n])); err == nil {
				t.Fatalf("accepted a %d/%d-byte truncation", n, len(raw))
			}
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 1
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Fatal("accepted a corrupted body")
		}
	})
	t.Run("oversized header", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		// nFaults field lives right after magic+sha+flags.
		off := 8 + 32 + 4
		for i := 0; i < 4; i++ {
			bad[off+i] = 0xff
		}
		if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("want corrupt-header error, got %v", err)
		}
	})
}

func TestAttachRejectsWrongCircuit(t *testing.T) {
	d := buildC17(t, Options{})
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Attach(circuits.RippleAdder(3), Options{}); err == nil {
		t.Fatal("attached a dictionary to the wrong netlist")
	}
}

// FuzzDecodeDictionary: Decode answers any byte string with a
// dictionary or an error, never a panic, and allocates no more than
// dictLimit bytes doing so, whatever dimensions the header claims; what
// it accepts encodes back into bytes it accepts again. The
// seeds are c17's dictionary with and without the full tier, their
// truncations, a flipped checksum byte and a header claiming the
// largest admitted dimensions over a short body.
func FuzzDecodeDictionary(f *testing.F) {
	c := circuits.C17()
	for _, full := range []bool{false, true} {
		d, err := Build(context.Background(), c, fault.Universe(c), exhaustive(5), Options{Full: full})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		for _, n := range []int{0, 8, 44, 60, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:n])
		}
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)-1] ^= 0x80
		f.Add(flipped)
		huge := append([]byte(nil), raw[:64]...)
		for field := 0; field < 4; field++ {
			binary.LittleEndian.PutUint32(huge[44+4*field:], dictLimit)
		}
		f.Add(huge)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := Decode(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > dictLimit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), n, dictLimit)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(&buf); err != nil {
			t.Fatalf("a decoded dictionary re-encodes to one Decode refuses: %v", err)
		}
	})
}
