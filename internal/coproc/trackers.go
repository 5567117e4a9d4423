package coproc

import "math"

// holdTracker counts resources held by in-flight operations: each entry is a
// release cycle; Count reports how many are still held at a given cycle.
// Used for physical-register occupancy, load/store queue occupancy and the
// pipeline-drain check.
type holdTracker struct {
	releases []uint64
	// nextRel lower-bounds every entry: drain is a no-op while now is below
	// it, which turns the per-cycle Count calls on busy trackers into a
	// compare instead of an O(entries) scan. Zero (the conservative value)
	// just forces the next drain to scan; restore resets it to zero.
	nextRel uint64
	// maxRel is the latest release ever added (entries expire out of
	// releases, this does not decay): lazy lastActive accounting needs the
	// last cycle the tracker held anything, even after drain dropped it.
	maxRel uint64
}

func (t *holdTracker) drain(now uint64) {
	if now < t.nextRel {
		return // every entry releases after now: nothing to expire
	}
	live := t.releases[:0]
	next := uint64(math.MaxUint64)
	for _, r := range t.releases {
		if r > now {
			live = append(live, r)
			if r < next {
				next = r
			}
		}
	}
	t.releases = live
	t.nextRel = next
}

// Count returns the number of entries still held at cycle now.
func (t *holdTracker) Count(now uint64) int {
	t.drain(now)
	return len(t.releases)
}

// Add records a resource held until cycle release.
func (t *holdTracker) Add(release uint64) {
	t.releases = append(t.releases, release)
	if release < t.nextRel {
		t.nextRel = release
	}
	if release > t.maxRel {
		t.maxRel = release
	}
}

// restore replaces the entries from a checkpoint and invalidates the drain
// bound (the restored entries may release earlier than the current ones).
// maxRel is recomputed from the surviving entries: history that expired
// before the checkpoint can only matter to windows the checkpoint already
// flushed, so the maximum over live entries is behaviourally identical.
func (t *holdTracker) restore(rs []uint64) {
	t.releases = append(t.releases[:0], rs...)
	t.nextRel = 0
	t.maxRel = 0
	for _, r := range rs {
		if r > t.maxRel {
			t.maxRel = r
		}
	}
}

// after returns the earliest release strictly after now, or sim.NeverWake
// when nothing is pending — the tracker's contribution to the skip-ahead
// engine's wake computation: Count(t) is constant for t in [now, after).
// Once drain has run at now, nextRel is exactly that release, so the answer
// costs a scan only on cycles where entries expire.
func (t *holdTracker) after(now uint64) uint64 {
	t.drain(now)
	return t.nextRel
}

// max returns the latest recorded release (0 when empty): the last cycle t
// for which Count(t-1) > 0.
func (t *holdTracker) max() uint64 {
	var m uint64
	for _, r := range t.releases {
		if r > m {
			m = r
		}
	}
	return m
}

// regPool tracks physical-register occupancy for one rename namespace:
// destinations are allocated at rename (transmit) and released at writeback,
// so both queued and issued-but-incomplete instructions hold registers —
// the pressure that collapses FTS in Figure 13.
type regPool struct {
	queued int         // renamed, not yet issued
	issued holdTracker // issued, released at completion
}

func (p *regPool) held(now uint64) int { return p.queued + p.issued.Count(now) }

// issueBudget carries the per-cycle slot counts. With SharedIssue the same
// struct is consumed by every core; otherwise each core gets a fresh one.
type issueBudget struct {
	compute int
	mem     int
	emsimd  *int // EM-SIMD path slots are always global (one shared path)
}
