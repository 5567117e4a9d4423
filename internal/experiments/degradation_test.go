package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"occamy/internal/arch"
)

var degOnce struct {
	sync.Once
	d   *Degradation
	err error
}

// degSweep runs the degradation sweep once and shares it across the tests.
func degSweep(t *testing.T) *Degradation {
	t.Helper()
	degOnce.Do(func() { degOnce.d, degOnce.err = Quick().Degradation() })
	if degOnce.err != nil {
		t.Fatal(degOnce.err)
	}
	return degOnce.d
}

// TestDegradationOccamyRetainsMost is the headline robustness claim: for
// every failure count 1..N-1, Occamy retains strictly more throughput than
// the three static designs — and the whole sweep is deterministic under a
// fixed seed.
func TestDegradationOccamyRetainsMost(t *testing.T) {
	d := degSweep(t)
	if d.Units < 2 {
		t.Fatalf("degenerate sweep: %d units", d.Units)
	}
	for f := 1; f < d.Units; f++ {
		occ := d.Points[arch.Occamy][f]
		if !occ.Completed {
			t.Errorf("f=%d: Occamy did not complete: %s", f, occ.Reason)
			continue
		}
		for _, kind := range []arch.Kind{arch.Private, arch.FTS, arch.VLS} {
			if other := d.Points[kind][f]; occ.Retention <= other.Retention {
				t.Errorf("f=%d: Occamy retention %.3f not strictly above %s %.3f",
					f, occ.Retention, kind, other.Retention)
			}
		}
		if occ.HasTTR && !occ.TTRPending && occ.TTR == 0 {
			t.Errorf("f=%d: Occamy recovery has zero time-to-repartition", f)
		}
	}

	d2, err := Quick().Degradation()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprintf("%+v", d.Points), fmt.Sprintf("%+v", d2.Points); a != b {
		t.Errorf("degradation sweep not deterministic under fixed seed:\n%s\n%s", a, b)
	}
}

// TestDegradationSnapshotPathIdentical is the sweep-level differential test
// for warm-up sharing: the snapshot-forked sweep (default) and the
// independent-runs sweep must agree on every point of every
// architecture — cycles, elements, retention, recovery times, DNF verdicts
// and reasons — because forking from the shared-prefix checkpoint is an
// execution strategy, not a model change.
func TestDegradationSnapshotPathIdentical(t *testing.T) {
	forked := degSweep(t) // the shared sweep uses the default snapshot path
	straight, err := Quick().degradation(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range arch.Kinds {
		a := fmt.Sprintf("%+v", forked.Points[kind])
		b := fmt.Sprintf("%+v", straight.Points[kind])
		if a != b {
			t.Errorf("%s: snapshot-forked sweep diverges from independent runs\nforked:   %s\nstraight: %s", kind, a, b)
		}
	}
}

// TestDegradationRender smoke-checks the report.
func TestDegradationRender(t *testing.T) {
	out := degSweep(t).Render()
	for _, want := range []string{"Degradation", "Occamy", "Time to repartition"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkDegradationSweep measures the checkpoint/restore payoff on the
// sweep that motivates it: every point of the fault-degradation study shares
// a warm-up prefix, which Snapshot runs once per architecture and forks,
// while NoSnapshot re-simulates from cycle zero for every point. Results are
// bit-identical (TestDegradationSnapshotPathIdentical); only wall time
// differs. Run serially (-j 1 inside the config) so the ratio reflects
// simulated work, not scheduling:
//
//	go test -run xxx -bench DegradationSweep -benchtime 3x ./internal/experiments
func BenchmarkDegradationSweep(b *testing.B) {
	run := func(b *testing.B, independent bool) {
		cfg := Quick()
		cfg.Parallel = 1
		for i := 0; i < b.N; i++ {
			if _, err := cfg.degradation(independent); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Snapshot", func(b *testing.B) { run(b, false) })
	b.Run("NoSnapshot", func(b *testing.B) { run(b, true) })
}
