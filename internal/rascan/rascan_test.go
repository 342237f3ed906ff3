package rascan

import (
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
)

func TestReadWritePolarityHold(t *testing.T) {
	c := circuits.Counter(4)
	r := New(fault.NewMachine(c, nil), PolarityHold)
	r.Write(2, true)
	if !r.Read(2) {
		t.Fatal("written latch reads back false")
	}
	if r.Read(0) || r.Read(1) || r.Read(3) {
		t.Fatal("write disturbed other latches")
	}
	if r.Writes != 1 || r.Reads != 4 {
		t.Fatalf("op accounting: writes=%d reads=%d", r.Writes, r.Reads)
	}
}

func TestSetResetDiscipline(t *testing.T) {
	c := circuits.Counter(4)
	r := New(fault.NewMachine(c, nil), SetReset)
	r.Preset(1)
	r.Preset(3)
	st := r.Machine().State()
	if st[0] || !st[1] || st[2] || !st[3] {
		t.Fatalf("state %v after presets", st)
	}
	r.Clear()
	for i, b := range r.Machine().State() {
		if b {
			t.Fatalf("latch %d still set after clear", i)
		}
	}
	// Kind misuse panics.
	defer func() {
		if recover() == nil {
			t.Fatal("Write on set/reset latch must panic")
		}
	}()
	r.Write(0, true)
}

func TestLoadStateBothKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, kind := range []LatchKind{PolarityHold, SetReset} {
		c := circuits.Counter(6)
		r := New(fault.NewMachine(c, nil), kind)
		want := make([]bool, 6)
		for i := range want {
			want[i] = rng.Intn(2) == 1
		}
		want[0] = true // guarantee at least one addressed operation
		ops := r.LoadState(want)
		got := r.Machine().State()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kind %d: latch %d = %v, want %v", kind, i, got[i], want[i])
			}
		}
		if ops == 0 {
			t.Fatalf("kind %d: zero ops reported", kind)
		}
	}
}

// TestRandomAccessBeatsSerialForSingleLatch captures RAS's selling
// point: touching one latch costs one addressed operation, not a full
// chain shift.
func TestRandomAccessBeatsSerialForSingleLatch(t *testing.T) {
	n := 64
	c := circuits.Counter(n)
	r := New(fault.NewMachine(c, nil), PolarityHold)
	r.Write(n-1, true)
	if r.AddressLoads != 1 {
		t.Fatalf("single-latch write cost %d operations; serial scan would cost %d shifts",
			r.AddressLoads, n)
	}
}

func TestFunctionalOperationAfterLoad(t *testing.T) {
	c := circuits.Counter(4)
	r := New(fault.NewMachine(c, nil), PolarityHold)
	r.LoadState([]bool{true, true, false, false}) // 3
	r.Machine().Step([]bool{true})
	var got uint
	for i, b := range r.Machine().State() {
		if b {
			got |= 1 << uint(i)
		}
	}
	if got != 4 {
		t.Fatalf("counter after load(3)+step = %d, want 4", got)
	}
}

func TestEstimateOverhead(t *testing.T) {
	o := EstimateOverhead(100)
	if o.GatesPerLatch < 3 || o.GatesPerLatch > 4 {
		t.Fatalf("gates/latch %.1f outside the paper's 3-4 band", o.GatesPerLatch)
	}
	if o.Pins < 10 || o.Pins > 20 {
		t.Fatalf("pins %d outside the paper's 10-20 band", o.Pins)
	}
	if o.PinsSerialized != 6 {
		t.Fatalf("serialized pins %d, want 6", o.PinsSerialized)
	}
	if o.ExtraGatesTotal <= 350 {
		t.Fatalf("total extra gates %d implausibly low", o.ExtraGatesTotal)
	}
}

func TestReadStateMatchesMachine(t *testing.T) {
	c := circuits.Counter(5)
	m := fault.NewMachine(c, nil)
	r := New(m, PolarityHold)
	for i := 0; i < 11; i++ {
		m.Step([]bool{true})
	}
	got := r.ReadState()
	want := m.State()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("latch %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestAddrValidation(t *testing.T) {
	c := circuits.Counter(3)
	r := New(fault.NewMachine(c, nil), PolarityHold)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range address must panic")
		}
	}()
	r.Read(3)
}
