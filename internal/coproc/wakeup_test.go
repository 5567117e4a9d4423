package coproc

import (
	"testing"

	"occamy/internal/isa"
	"occamy/internal/mem"
	"occamy/internal/obs"
	"occamy/internal/roofline"
	"occamy/internal/sim"
)

// chainRun drives core 0 of a probed rig and records, per named pool
// position, the cycle the instruction issued, plus the top-down bucket
// every cycle was charged to.
type chainRun struct {
	r       *rig
	p       *obs.Probe
	names   map[int]string
	issued  map[string]uint64
	buckets map[uint64]obs.Bucket
}

func newChainRun(r *rig, names map[int]string) *chainRun {
	p := obs.NewProbe(r.cp.cfg.Cores, nil)
	r.cp.SetProbe(p)
	return &chainRun{r: r, p: p, names: names,
		issued: map[string]uint64{}, buckets: map[uint64]obs.Bucket{}}
}

// send transmits x on core 0 under name.
func (cr *chainRun) send(t *testing.T, name string, x XInst) {
	t.Helper()
	cr.names[cr.r.cp.cores[0].tail] = name
	if cr.r.cp.Transmit(x) != TransmitOK {
		t.Fatalf("transmit %s refused", name)
	}
}

func (cr *chainRun) step() {
	now := cr.r.cycle
	before := cr.p.CoreAttribution(0).Buckets
	cr.r.cp.Tick(now)
	cr.p.Tick(now)
	cr.r.cycle++
	after := cr.p.CoreAttribution(0).Buckets
	for b := range after {
		if after[b] != before[b] {
			cr.buckets[now] = obs.Bucket(b)
		}
	}
	st := cr.r.cp.cores[0]
	for pos, name := range cr.names {
		if _, ok := cr.issued[name]; !ok && st.at(pos).issued {
			cr.issued[name] = now
		}
	}
}

// stepUntil ticks until name has issued (bounded).
func (cr *chainRun) stepUntil(t *testing.T, name string) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if _, ok := cr.issued[name]; ok {
			return
		}
		cr.step()
	}
	t.Fatalf("%s never issued", name)
}

// TestIssueWakeupChain pins the event-driven issue stage on a hand-built
// dependency chain, load → fmla → fmla → store, plus one independent fmla:
// the exact issue cycle of each op, the independent op issuing past the
// waiting ones, the ExeBU-wait attribution on exactly the cycles a compute
// op waited, and a mid-chain checkpoint replaying the same schedule on a
// freshly built instance (which rebuilds the wakeup state from the window).
//
// The store is transmitted only after the second fmla issued. A store
// waiting for its data signals LSU-wait, which outranks ExeBU-wait in the
// top-down priority, so an earlier store would hide the signal under test.
// Transmitted late, it also exercises the other operand path: its producer
// has issued, so its ready cycle comes from the register completion table.
func TestIssueWakeupChain(t *testing.T) {
	const chainAt = 4 // setVL leaves the rig at cycle 4
	names := map[int]string{}
	r := newRig(t, nil)
	r.setVL(t, 0, 2)
	if r.cycle != chainAt {
		t.Fatalf("setVL left the rig at cycle %d", r.cycle)
	}
	orig := newChainRun(r, names)
	orig.send(t, "load", XInst{Op: isa.OpVLoad, Core: 0, Dst: 1, Addr: 4096, Active: 8, Width: 2})
	orig.send(t, "fmla1", orig.r.vinst(0, isa.OpVFMla, 2, 1, 1, 8))
	orig.send(t, "fmla2", orig.r.vinst(0, isa.OpVFMla, 3, 2, 1, 8))
	orig.send(t, "indep", orig.r.vinst(0, isa.OpVFMla, 5, 4, 4, 8))

	const ckAt = chainAt + 2
	for orig.r.cycle < ckAt {
		orig.step()
	}
	ck := orig.r.cp.Checkpoint()
	loadDone := orig.r.cp.cores[0].regDone[1]
	lat := orig.r.cp.cfg.ComputeLat
	if loadDone <= ckAt {
		t.Fatalf("load completes at %d, before the checkpoint at %d: the chain does not span it", loadDone, ckAt)
	}

	store := XInst{Op: isa.OpVStore, Core: 0, Dst: 3, Addr: 8192, Active: 8, Width: 2}
	finish := func(cr *chainRun) {
		cr.stepUntil(t, "fmla2")
		cr.send(t, "store", store)
		cr.stepUntil(t, "store")
	}
	finish(orig)

	want := map[string]uint64{
		"load":  chainAt,
		"indep": chainAt, // younger than both waiting fmlas, issues past them
		"fmla1": loadDone,
		"fmla2": loadDone + lat,
		"store": loadDone + 2*lat,
	}
	for name, w := range want {
		if got := orig.issued[name]; got != w {
			t.Errorf("%s issued at cycle %d, want %d", name, got, w)
		}
	}
	for now := uint64(chainAt); now <= want["store"]; now++ {
		var b obs.Bucket
		switch {
		case now == chainAt || now == want["fmla1"] || now == want["fmla2"] || now == want["store"]:
			b = obs.BucketVecIssue
		case now < want["fmla2"]: // a compute op waits on the load or on fmla1
			b = obs.BucketExeBUWait
		default: // only the store waits, on fmla2's data
			b = obs.BucketLSUWait
		}
		if got := orig.buckets[now]; got != b {
			t.Errorf("cycle %d charged to %s, want %s", now, got, b)
		}
	}

	// Replay from the mid-chain checkpoint on a fresh instance.
	fresh := newChainRun(newRig(t, nil), names)
	fresh.r.cp.RestoreCheckpoint(ck)
	fresh.r.cycle = ckAt
	for name, c := range orig.issued {
		if c < ckAt {
			fresh.issued[name] = c
		}
	}
	finish(fresh)
	for name, c := range orig.issued {
		if got := fresh.issued[name]; got != c {
			t.Errorf("restored run issued %s at %d, straight run at %d", name, got, c)
		}
	}
	for now := uint64(ckAt); now <= want["store"]; now++ {
		if fresh.buckets[now] != orig.buckets[now] {
			t.Errorf("cycle %d: restored run charged %s, straight run %s", now, fresh.buckets[now], orig.buckets[now])
		}
	}
}

// TestMigrationStaleCompletionsReadComplete moves core 0 to the other
// cluster and back through the Complex's migration path. The home shard
// still holds per-register completions from the core's first stay; a
// consumer of those registers must read them as complete and issue on its
// first cycle.
func TestMigrationStaleCompletionsReadComplete(t *testing.T) {
	stats := sim.NewStats()
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig(2), stats)
	data := mem.NewMemory()
	cfg := DefaultConfig(2)
	cfg.ExeBUs = 4 // per cluster
	cls := []*Coproc{
		New(cfg, h.VecCache, data, roofline.Default(), stats),
		New(cfg, h.VecCache, data, roofline.Default(), stats),
	}
	cx := NewComplex(Topology{Clusters: 2}, cls)
	var cycle uint64
	tick := func(n int) {
		for ; n > 0; n-- {
			for _, cp := range cls {
				cp.Tick(cycle)
			}
			cycle++
		}
	}
	send := func(x XInst) {
		t.Helper()
		if cx.Transmit(x) != TransmitOK {
			t.Fatalf("transmit %v refused", x.Op)
		}
	}
	migrate := func(to int) {
		t.Helper()
		if !cx.Quiescent(0, cycle) {
			t.Fatal("core 0 not drained before migration")
		}
		cx.pendMig[0] = to
		if !cx.StripBoundary(0) || cx.Home(0) != to {
			t.Fatalf("migration to cluster %d did not complete (home %d)", to, cx.Home(0))
		}
	}

	send(XInst{Op: isa.OpMSR, Core: 0, Sys: isa.SysVL, Val: 2})
	tick(4)
	send(XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 1, Active: 8, Width: 2})
	send(XInst{Op: isa.OpVDupI, Core: 0, Dst: 2, FImm: 2, Active: 8, Width: 2})
	tick(10)
	migrate(1)
	send(XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 3, Active: 8, Width: 2})
	tick(10)
	migrate(0)

	home := cls[0].cores[0]
	for _, r := range []isa.Reg{1, 2} {
		if home.lastWriter[r] == 0 || home.regDone[r] >= cycle {
			t.Fatalf("z%d: want a stale completed writer on the home shard, got seq %d done %d (now %d)",
				r, home.lastWriter[r], home.regDone[r], cycle)
		}
	}
	pos := home.tail
	issueAt := cycle
	send(XInst{Op: isa.OpVFAdd, Core: 0, Dst: 3, Src1: 1, Src2: 2, Active: 8, Width: 2})
	tick(1)
	if !home.at(pos).issued {
		t.Fatalf("consumer of stale registers did not issue at cycle %d", issueAt)
	}
	tick(10)
	// z1 came back with the core's vector state from cluster 1 (3), z2
	// from its first stay on cluster 0 (2).
	if got := cx.Z(0, 3, 0); got != 5 {
		t.Fatalf("z3 = %v, want 5", got)
	}
}
