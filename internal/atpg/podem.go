package atpg

import (
	"errors"
	"math/bits"

	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// ErrUntestable is returned when the search space is exhausted without
// finding a test: the fault is redundant under the given view.
var ErrUntestable = errors.New("atpg: fault is untestable (redundant)")

// ErrAborted is returned when the backtrack limit is reached before the
// search concludes.
var ErrAborted = errors.New("atpg: backtrack limit exceeded")

// PodemConfig tunes the PODEM (and D-algorithm) search.
type PodemConfig struct {
	MaxBacktracks int // 0 means DefaultBacktracks
	// Metrics receives decision/backtrack/implication counts; nil
	// selects telemetry.Default().
	Metrics *telemetry.Registry
}

// DefaultBacktracks bounds the search effort per fault.
const DefaultBacktracks = 10000

// Podem generates a test for the fault using the PODEM algorithm:
// branch-and-bound over view-input assignments only, with objectives
// backtraced from the fault site and D-frontier.
func Podem(c *logic.Circuit, view View, f fault.Fault, cfg PodemConfig) (Test, error) {
	return NewSearcher(c, view).Podem(f, cfg)
}

// PodemMulti generates a single test cube detecting the multi-site
// fault. With one site it is Podem.
func PodemMulti(c *logic.Circuit, view View, fs MultiFault, cfg PodemConfig) (Test, error) {
	return NewSearcher(c, view).PodemMulti(fs, cfg)
}

// Searcher runs PODEM on one circuit under one view. Its simulator's
// per-net state is built once and reused for every fault, so callers
// that target many faults (the ATPG driver, advise's probe) allocate it
// once. A Searcher is not safe for concurrent use.
type Searcher struct {
	s     *sim5
	stack []decision // the search's decision stack, reused across faults
}

// decision is one PODEM branch: a view input and the value tried.
type decision struct {
	idx     int // index into view.Inputs
	val     logic.V
	flipped bool
	mark    int // s's trail before the decision took effect
}

// NewSearcher prepares PODEM for the circuit under the view.
func NewSearcher(c *logic.Circuit, view View) *Searcher {
	return &Searcher{s: newSim5(c, view, nil)}
}

// Podem is the package-level Podem on the searcher's circuit and view.
func (p *Searcher) Podem(f fault.Fault, cfg PodemConfig) (Test, error) {
	return p.PodemMulti(MultiFault{f}, cfg)
}

// PodemMulti is the package-level PodemMulti on the searcher's circuit
// and view.
func (p *Searcher) PodemMulti(fs MultiFault, cfg PodemConfig) (Test, error) {
	p.s.target(fs)
	return p.podemSearch(cfg)
}

// podemSearch is the branch-and-bound loop: decisions are made only
// over view inputs, and backtrace never returns an assigned one.
func (p *Searcher) podemSearch(cfg PodemConfig) (Test, error) {
	s, stack := p.s, p.stack[:0]
	maxBT := cfg.MaxBacktracks
	if maxBT <= 0 {
		maxBT = DefaultBacktracks
	}

	backtracks := 0
	decisions, implications := 0, 0
	defer func() {
		p.stack = stack
		// Flush once per fault: the search loop itself stays atomic-free.
		reg := telemetry.OrDefault(cfg.Metrics)
		reg.Counter("atpg.podem.decisions").Add(int64(decisions))
		reg.Counter("atpg.podem.backtracks").Add(int64(backtracks))
		reg.Counter("atpg.podem.implications").Add(int64(implications))
		reg.Counter("atpg.podem.evals").Add(int64(s.evals))
		reg.Counter("atpg.backtracks").Add(int64(backtracks))
	}()

	for {
		s.run()
		implications++
		if s.detected() {
			return s.test(), nil
		}
		obj, objVal, feasible := objective(s)
		if feasible {
			if idx, v, ok := backtrace(s, obj, objVal); ok {
				stack = append(stack, decision{idx: idx, val: v, mark: s.mark()})
				s.set(idx, v)
				decisions++
				continue
			}
			// No X path to an input: treat as a dead end.
		}
		// Backtrack.
		for {
			if len(stack) == 0 {
				return Test{}, ErrUntestable
			}
			top := &stack[len(stack)-1]
			s.undo(top.mark)
			if !top.flipped {
				top.flipped = true
				top.val = top.val.Not()
				s.set(top.idx, top.val)
				backtracks++
				if backtracks > maxBT {
					return Test{}, ErrAborted
				}
				break
			}
			s.assign[top.idx] = logic.X // undo already restored vals
			stack = stack[:len(stack)-1]
		}
	}
}

// objective returns the next (net, value) goal: activate a fault site
// if none carries an error yet, otherwise advance the D-frontier.
// feasible=false signals a provable dead end under the current
// assignment.
func objective(s *sim5) (net int, val logic.V, feasible bool) {
	active, open := false, -1
	for i, f := range s.sites {
		switch good := s.vals[f.Site(s.c)].Good(); {
		case good == logic.X:
			if open < 0 {
				open = i
			}
		case good != f.SA:
			active = true
		}
	}
	if !active {
		if open < 0 {
			// Every site pinned at its stuck value: no activation possible.
			return 0, logic.X, false
		}
		// Activate: drive the first open site to the complement of its
		// stuck value.
		f := s.sites[open]
		return f.Site(s.c), f.SA.Not(), true
	}
	// Activated: the first D-frontier gate, in c.Order, with an X-path
	// to an output.
	s.beginXPath()
	for w, word := range s.frontier {
		for ; word != 0; word &= word - 1 {
			id := s.c.Order[w<<6|bits.TrailingZeros64(word)]
			if !xPath(s, id) {
				continue
			}
			// Objective: set an X input to the non-controlling value.
			g := &s.c.Gates[id]
			for pin, src := range g.Fanin {
				if s.vals[src] != logic.X || s.branchSite(id, pin) {
					continue // known, or a faulty branch, which is not settable
				}
				cv, has := g.Type.ControllingValue()
				want := logic.Zero
				if has {
					want = cv.Not()
				}
				return src, want, true
			}
		}
	}
	return 0, logic.X, false
}

// xPath reports whether net can still reach an observable net through
// X-valued nets (the classical X-path check). Results are memoized for
// the epoch beginXPath opened, so a net is expanded at most once per
// epoch however many reconvergent paths reach it.
func xPath(s *sim5, net int) bool {
	switch s.xMemo[net] {
	case s.xEpoch:
		return false
	case s.xEpoch + 1:
		return true
	}
	s.xVisits++
	found := s.isObs[net]
	readers := s.t.ReadersOf(int32(net))
	for i := 0; !found && i < len(readers); i++ {
		found = s.vals[readers[i]] == logic.X && xPath(s, int(readers[i]))
	}
	s.xMemo[net] = s.xEpoch
	if found {
		s.xMemo[net]++
	}
	return found
}

// backtrace walks an objective back to an unassigned view input,
// flipping the target value through inverting gates. It returns the
// input index and value to try.
func backtrace(s *sim5, net int, val logic.V) (idx int, v logic.V, ok bool) {
	c := s.c
	for {
		if i := int(s.inPos[net]); i >= 0 {
			if s.assign[i] != logic.X {
				return 0, logic.X, false
			}
			return i, val, true
		}
		g := &c.Gates[net]
		if !g.Type.IsCombinational() || len(g.Fanin) == 0 {
			return 0, logic.X, false // uncontrollable source (const, unscanned DFF)
		}
		if g.Type.Inverting() {
			val = val.Not()
		}
		// Choose an X-valued fanin to pursue.
		next := -1
		for _, src := range g.Fanin {
			if s.vals[src] == logic.X {
				next = src
				break
			}
		}
		if next < 0 {
			return 0, logic.X, false
		}
		net = next
	}
}
