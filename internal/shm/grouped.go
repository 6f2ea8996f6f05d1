package shm

import "fmt"

// GroupSize is the maximum number of workers one selection bitmap can
// address: the paper synchronizes coarse-filter results through a single
// 64-bit atomic<int>, capping each group at 64 workers (§7 "Will the 64-bit
// atomic<int> limit...").
const GroupSize = 64

// Grouped is the two-level Worker Status Table for fleets larger than one
// bitmap's worth of workers — and, with small spans, the cache-locality
// grouping of Fig. A6. Workers are partitioned into fixed-span groups; each
// group has an independent WST updated exclusively by its own workers.
type Grouped struct {
	groups  []*WST
	workers int
	span    int
}

// NewGrouped builds a grouped table for n workers with the maximum span of
// 64: the >64-worker scaling layout of §7. Worker global IDs are dense:
// worker g*span+i is slot i of group g; the final group may be partial.
func NewGrouped(n int) *Grouped { return NewGroupedSpan(n, GroupSize) }

// NewGroupedSpan builds a grouped table with an explicit group span in
// 1..64. Smaller spans trade balance for locality (Fig. A6: "the grouping
// granularity controls the trade-off").
func NewGroupedSpan(n, span int) *Grouped {
	if n < 1 {
		panic(fmt.Sprintf("shm: worker count %d < 1", n))
	}
	if span < 1 || span > GroupSize {
		panic(fmt.Sprintf("shm: group span %d outside 1..%d", span, GroupSize))
	}
	ng := (n + span - 1) / span
	g := &Grouped{groups: make([]*WST, ng), workers: n, span: span}
	for i := 0; i < ng; i++ {
		size := span
		if i == ng-1 {
			if rem := n - i*span; rem > 0 {
				size = rem
			}
		}
		g.groups[i] = NewWST(size)
	}
	return g
}

// Workers returns the total worker count.
func (g *Grouped) Workers() int { return g.workers }

// Groups returns the number of groups.
func (g *Grouped) Groups() int { return len(g.groups) }

// Span returns the group span.
func (g *Grouped) Span() int { return g.span }

// Group returns the WST of group gi.
func (g *Grouped) Group(gi int) *WST { return g.groups[gi] }

// Locate maps a global worker ID to (group, slot).
func (g *Grouped) Locate(worker int) (group, slot int) {
	if worker < 0 || worker >= g.workers {
		panic(fmt.Sprintf("shm: worker %d out of range [0,%d)", worker, g.workers))
	}
	return worker / g.span, worker % g.span
}

// GlobalID maps (group, slot) back to the global worker ID.
func (g *Grouped) GlobalID(group, slot int) int { return group*g.span + slot }

// Snapshot appends every worker's metrics to dst in global-ID order (each
// group's rows in turn: IDs are dense, so the concatenation lines up).
func (g *Grouped) Snapshot(dst []Metrics) []Metrics {
	for _, t := range g.groups {
		dst = t.Snapshot(dst)
	}
	return dst
}

// Writer returns the update handle for a global worker ID.
func (g *Grouped) Writer(worker int) Writer {
	gi, slot := g.Locate(worker)
	return g.groups[gi].Writer(slot)
}
