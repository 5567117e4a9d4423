package sim

import (
	"strings"
	"testing"
)

// sleeperStub is a Component+Sleeper with a scripted wake function. It
// records real ticks and bulk-skips separately so tests can assert exactly
// which cycles were elided.
type sleeperStub struct {
	name    string
	wake    func(now uint64) (uint64, bool)
	ticks   []uint64
	skips   [][2]uint64 // (from, n)
	skipped uint64
}

func (s *sleeperStub) Name() string      { return s.name }
func (s *sleeperStub) Tick(cycle uint64) { s.ticks = append(s.ticks, cycle) }
func (s *sleeperStub) NextWake(now uint64) (uint64, bool) {
	return s.wake(now)
}
func (s *sleeperStub) SkipTicks(from, n uint64) {
	s.skips = append(s.skips, [2]uint64{from, n})
	s.skipped += n
}

func TestSkipAheadJumpsToWake(t *testing.T) {
	e := NewEngine()
	s := &sleeperStub{name: "s", wake: func(now uint64) (uint64, bool) {
		if now < 40 {
			return 40, true
		}
		return 0, false // tick for real from 40 on
	}}
	e.Register(s)
	n, err := e.RunUntil(func() bool { return e.Cycle() >= 42 }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 42 || e.Cycle() != 42 {
		t.Fatalf("ran %d to cycle %d, want 42", n, e.Cycle())
	}
	if len(s.skips) != 1 || s.skips[0] != [2]uint64{0, 40} {
		t.Fatalf("skips = %v, want one (0,40) jump", s.skips)
	}
	if len(s.ticks) != 2 || s.ticks[0] != 40 || s.ticks[1] != 41 {
		t.Fatalf("real ticks = %v, want [40 41]", s.ticks)
	}
	if e.Skips() != 1 || e.SkippedCycles() != 40 {
		t.Fatalf("engine counters: skips=%d skipped=%d", e.Skips(), e.SkippedCycles())
	}
}

func TestSkipAheadWakeInPastDegradesToTicking(t *testing.T) {
	e := NewEngine()
	// A buggy sleeper that keeps declaring a wake cycle in the past must
	// not stall the clock: the engine falls back to real ticks.
	s := &sleeperStub{name: "past", wake: func(now uint64) (uint64, bool) {
		if now == 0 {
			return 5, true
		}
		return 3, true // in the past once now >= 5
	}}
	e.Register(s)
	n, err := e.RunUntil(func() bool { return e.Cycle() >= 10 }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || e.Cycle() != 10 {
		t.Fatalf("ran %d to cycle %d, want 10", n, e.Cycle())
	}
	if s.skipped != 5 || len(s.ticks) != 5 {
		t.Fatalf("skipped %d, ticked %v; want 5 skipped then real ticks 5..9", s.skipped, s.ticks)
	}
}

func TestSkipAheadWakeExactlyAtDone(t *testing.T) {
	e := NewEngine()
	s := &sleeperStub{name: "s", wake: func(now uint64) (uint64, bool) { return 42, true }}
	e.Register(s)
	n, err := e.RunUntil(func() bool { return e.Cycle() >= 42 }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 42 || e.Cycle() != 42 {
		t.Fatalf("ran %d to cycle %d, want exactly 42", n, e.Cycle())
	}
	if len(s.ticks) != 0 {
		t.Fatalf("ticked at %v, want pure skip", s.ticks)
	}
}

func TestSkipAheadQuiescentForeverHitsBudget(t *testing.T) {
	e := NewEngine()
	s := &sleeperStub{name: "dead", wake: func(now uint64) (uint64, bool) { return NeverWake, true }}
	e.Register(s)
	n, err := e.RunUntil(func() bool { return false }, 100)
	if err == nil {
		t.Fatal("want budget-exhaustion error")
	}
	if !strings.Contains(err.Error(), "cycle budget") {
		t.Fatalf("err = %v, want cycle-budget deadlock error", err)
	}
	// The deadlock must surface at exactly the cycle the legacy path
	// reports (maxCycles elapsed), not spin and not overshoot.
	if n != 100 || e.Cycle() != 100 {
		t.Fatalf("ran %d to cycle %d, want 100", n, e.Cycle())
	}
	if s.skipped != 100 || len(s.ticks) != 0 {
		t.Fatalf("skipped=%d ticks=%v, want the whole budget skipped", s.skipped, s.ticks)
	}
}

func TestSkipAheadRequiresEverySleeper(t *testing.T) {
	e := NewEngine()
	s := &sleeperStub{name: "s", wake: func(now uint64) (uint64, bool) { return NeverWake, true }}
	plain := &countingComponent{name: "plain"}
	e.Register(s)
	e.Register(plain) // no Sleeper capability: it may act on any cycle
	if _, err := e.RunUntil(func() bool { return e.Cycle() >= 7 }, 1000); err != nil {
		t.Fatal(err)
	}
	if s.skipped != 0 || len(plain.ticks) != 7 {
		t.Fatalf("skipped=%d plainTicks=%d, want 0 skips and 7 real ticks", s.skipped, len(plain.ticks))
	}
}

func TestSetSkipAheadOffForcesLegacy(t *testing.T) {
	e := NewEngine()
	if !e.SkipAhead() {
		t.Fatal("skip-ahead should default on")
	}
	e.SetSkipAhead(false)
	s := &sleeperStub{name: "s", wake: func(now uint64) (uint64, bool) { return NeverWake, true }}
	e.Register(s)
	if _, err := e.RunUntil(func() bool { return e.Cycle() >= 25 }, 1000); err != nil {
		t.Fatal(err)
	}
	if s.skipped != 0 || len(s.ticks) != 25 {
		t.Fatalf("skipped=%d ticks=%d, want pure legacy ticking", s.skipped, len(s.ticks))
	}
}

func TestTimelineRecordRunMatchesRecord(t *testing.T) {
	a, b := NewTimeline(10), NewTimeline(10)
	for c := uint64(0); c < 37; c++ {
		a.Record(c, 0)
	}
	b.RecordRun(0, 5, 0)
	b.RecordRun(5, 17, 0) // crosses two bucket boundaries
	b.RecordRun(22, 15, 0)
	ap, bp := a.Points(), b.Points()
	if len(ap) != len(bp) {
		t.Fatalf("lengths %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("bucket %d: %v vs %v", i, ap[i], bp[i])
		}
	}
	for i := range a.counts {
		if a.counts[i] != b.counts[i] {
			t.Fatalf("bucket %d count: %d vs %d", i, a.counts[i], b.counts[i])
		}
	}
}

// tickCounter is a trivial component whose only state is how many ticks it
// received, with one declared quiescent window so a run can be split inside
// a skip.
type tickCounter struct {
	ticks   uint64
	skipped uint64
	// sleepFrom/sleepTo declare one quiescent window (0,0 = never sleeps).
	sleepFrom, sleepTo uint64
}

func (c *tickCounter) Name() string      { return "ctr" }
func (c *tickCounter) Tick(cycle uint64) { c.ticks++ }
func (c *tickCounter) NextWake(now uint64) (uint64, bool) {
	if now >= c.sleepFrom && now < c.sleepTo {
		return c.sleepTo, true
	}
	return 0, false
}
func (c *tickCounter) SkipTicks(from, n uint64) { c.skipped += n }

// TestRunUntilSegmentedMatchesUnsplit pins chunk-linearity: a run split into
// RunUntil segments — one boundary inside a skip window, clamped there by the
// segment's budget the way RunTo and checkpoint forks clamp — ends at the
// same cycle with the same real and skipped tick counts as one unsplit run.
func TestRunUntilSegmentedMatchesUnsplit(t *testing.T) {
	mk := func() (*Engine, *tickCounter) {
		e := NewEngine()
		c := &tickCounter{sleepFrom: 3000, sleepTo: 8000}
		e.Register(c)
		return e, c
	}
	runTo := func(e *Engine, target uint64) {
		t.Helper()
		if _, err := e.RunUntil(func() bool { return e.Cycle() >= target }, target-e.Cycle()); err != nil {
			t.Fatal(err)
		}
	}

	whole, wc := mk()
	runTo(whole, 9000)

	seg, sc := mk()
	for _, target := range []uint64{1000, 2500, 4000, 9000} {
		runTo(seg, target)
	}

	if seg.Cycle() != whole.Cycle() {
		t.Fatalf("segmented run ends at cycle %d, unsplit at %d", seg.Cycle(), whole.Cycle())
	}
	if sc.ticks != wc.ticks || sc.skipped != wc.skipped {
		t.Fatalf("segmented ticks/skipped %d/%d != unsplit %d/%d", sc.ticks, sc.skipped, wc.ticks, wc.skipped)
	}
	if wc.skipped == 0 {
		t.Fatal("unsplit run skipped nothing; the test no longer covers a skip window")
	}
	if seg.Skips() <= whole.Skips() {
		t.Fatalf("segmented run made %d jumps, unsplit %d; the window was not split", seg.Skips(), whole.Skips())
	}
}
