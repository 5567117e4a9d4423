package coproc

import (
	"math"
	"math/bits"
)

// This file holds the event-driven half of the issue stage (Figure 5's
// out-of-order dispatcher). Instead of re-checking every waiting
// instruction's operands each cycle, a consumer learns its operands'
// completion cycles as they become known:
//
//   - At transmit, an operand whose producer has already issued reads the
//     producer's completion cycle from coreState.regDone, the per-register
//     completion table; an operand whose producer has not issued links the
//     consumer onto the producer's pool slot.
//   - When a producer issues, it posts its completion cycle through those
//     links (coreState.post). A compute consumer whose last operand resolves
//     is scheduled: straight into the ready mask if the operand is already
//     complete, else onto the calendar, which moves it there at its ready
//     cycle.
//
// tickCore then visits only the set bits of the issue masks, oldest first.
// The masks, links and calendar are derived from checkpointed plain fields
// (the window's issued flags, dependency sequence numbers and readyAt
// cycles) and rebuilt on restore; none of them is checkpointed and none
// allocates.

// notIssued marks a regDone entry whose newest writer has not issued yet.
const notIssued = math.MaxUint64

// slotMask is a bitmap over the queueRing pool slots.
type slotMask [queueRing / 64]uint64

func (m *slotMask) set(s int)   { m[s>>6] |= 1 << (s & 63) }
func (m *slotMask) clear(s int) { m[s>>6] &^= 1 << (s & 63) }

// any reports whether a slot of a stream position in [i, end) is set
// (end-i < queueRing).
func (m *slotMask) any(i, end int) bool {
	for i < end {
		s := i & queueMask
		if w := m[s>>6] >> (s & 63); w != 0 {
			return i+bits.TrailingZeros64(w) < end
		}
		i += 64 - s&63
	}
	return false
}

// count returns the number of set slots.
func (m *slotMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// link names one operand of a consumer: its pool slot << 2 | operand index.
type link uint16

const noLink link = math.MaxUint16

// calendar is a binary min-heap of compute instructions whose operands are
// all issued but not yet complete, keyed readyAt<<8 | slot. Each pool slot
// is on it at most once, so queueRing entries always suffice.
type calendar struct {
	n int
	h [queueRing]uint64
}

func (c *calendar) push(v uint64) {
	i := c.n
	c.n++
	for i > 0 {
		p := (i - 1) / 2
		if c.h[p] <= v {
			break
		}
		c.h[i] = c.h[p]
		i = p
	}
	c.h[i] = v
}

func (c *calendar) pop() uint64 {
	top := c.h[0]
	c.n--
	v := c.h[c.n]
	i := 0
	for {
		l := 2*i + 1
		if l >= c.n {
			break
		}
		if r := l + 1; r < c.n && c.h[r] < c.h[l] {
			l = r
		}
		if v <= c.h[l] {
			break
		}
		c.h[i] = c.h[l]
		i = l
	}
	c.h[i] = v
	return top
}

// wakeState is one core's derived issue-scheduling state.
type wakeState struct {
	ready slotMask // unissued compute instructions with every operand complete
	wait  slotMask // unissued compute instructions still waiting on an operand
	mem   slotMask // unissued vector loads and stores
	em    slotMask // unissued EM-SIMD instructions
	// first[s] heads the list of consumers linked onto the producer in
	// slot s; next[s][k] continues the list through consumer s's operand k.
	first [queueRing]link
	next  [queueRing][3]link
	// pending[s] counts the unissued producers consumer s still waits on.
	pending [queueRing]uint8
	cal     calendar
}

// slotOf maps a sequence number to its pool slot: Transmit numbers each
// instruction with its stream position plus one.
func slotOf(seq uint64) int { return int(seq-1) & queueMask }

// linkTo records that operand k of the consumer in slot s waits on the
// unissued producer in slot p.
func (w *wakeState) linkTo(s, k, p int) {
	w.next[s][k] = w.first[p]
	w.first[p] = link(s<<2 | k)
	w.pending[s]++
}

// schedule makes the compute instruction in slot s, whose operands are all
// issued, ready at cycle at: now if already complete, else via the calendar.
func (w *wakeState) schedule(s int, at, now uint64) {
	if at <= now {
		w.wait.clear(s)
		w.ready.set(s)
		return
	}
	w.cal.push(at<<8 | uint64(s))
}

// wakeUp moves every calendar entry due by now into the ready mask.
func (w *wakeState) wakeUp(now uint64) {
	for w.cal.n > 0 && w.cal.h[0]>>8 <= now {
		s := int(w.cal.pop() & queueMask)
		w.wait.clear(s)
		w.ready.set(s)
	}
}

// nextCand returns the first stream position in [i, end) holding an issue
// candidate — an EM-SIMD instruction, a ready compute instruction when
// compute is set, a memory instruction when mem is set — or end.
func (w *wakeState) nextCand(i, end int, compute, mem bool) int {
	for i < end {
		s := i & queueMask
		k := s >> 6
		m := w.em[k]
		if compute {
			m |= w.ready[k]
		}
		if mem {
			m |= w.mem[k]
		}
		if m >>= s & 63; m != 0 {
			return min(i+bits.TrailingZeros64(m), end)
		}
		i += 64 - s&63
	}
	return end
}

// post publishes the completion cycle of x, a destination writer that just
// issued: to the register table while x is still its register's newest
// writer, and to every consumer linked onto x's slot.
func (st *coreState) post(x *XInst, done, now uint64) {
	if st.lastWriter[x.Dst] == x.seq {
		st.regDone[x.Dst] = done
	}
	w := &st.wk
	p := slotOf(x.seq)
	for l := w.first[p]; l != noLink; {
		s, k := int(l>>2), l&3
		l = w.next[s][k]
		y := &st.queue[s]
		if done > y.readyAt {
			y.readyAt = done
		}
		if w.pending[s]--; w.pending[s] == 0 && y.kind == kindCompute {
			w.schedule(s, y.readyAt, now)
		}
	}
	w.first[p] = noLink
}

// operandsReady reports whether every operand of x is complete at now.
func (st *coreState) operandsReady(x *XInst, now uint64) bool {
	return st.wk.pending[slotOf(x.seq)] == 0 && x.readyAt <= now
}

// admit enters the unissued instruction x in slot s into the issue masks,
// once its operand links are in place.
func (w *wakeState) admit(s int, x *XInst, now uint64) {
	switch x.kind {
	case kindEMSIMD:
		w.em.set(s)
	case kindMem, kindStore:
		w.mem.set(s)
	default:
		w.wait.set(s)
		if w.pending[s] == 0 {
			w.schedule(s, x.readyAt, now)
		}
	}
}

// rebuildWake reconstructs the wake state from the restored window. Every
// unissued instruction re-enters it in program order, linking onto those of
// its producers that are still unissued: a producer below head, or issued
// inside the window, has already folded its completion cycle into readyAt.
// Producers precede their consumers, so each slot's list head is reset
// before anything links onto it.
func (st *coreState) rebuildWake(now uint64) {
	w := &st.wk
	w.ready, w.wait, w.mem, w.em = slotMask{}, slotMask{}, slotMask{}, slotMask{}
	w.cal.n = 0
	for i := st.head; i < st.tail; i++ {
		s := i & queueMask
		w.first[s] = noLink
		w.pending[s] = 0
		x := st.at(i)
		if x.issued {
			continue
		}
		for k, dep := range [3]uint64{x.dep1, x.dep2, x.dep3} {
			if p := int(dep) - 1; dep != 0 && p >= st.head && !st.at(p).issued {
				w.linkTo(s, k, p&queueMask)
			}
		}
		w.admit(s, x, now)
	}
}
