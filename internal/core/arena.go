package core

// Arena garbage accounting and compaction, forwarded from the diagram kinds.
// Incremental maintenance (Apply/ApplyBatch) is copy-on-write over the
// interned result tables, so sustained churn strands unreferenced results in
// the shared arenas; serving layers use ArenaGarbageRatio to decide when to
// swap in a compacted set.

// ArenaLive returns the referenced and total arena id counts of the wrapped
// diagram's result table.
func (d *QuadrantDiagram) ArenaLive() (live, total int) { return d.d.ArenaLive() }

// CompactArena returns an equivalent diagram over a garbage-free arena.
func (d *QuadrantDiagram) CompactArena() *QuadrantDiagram {
	return &QuadrantDiagram{d: d.d.CompactArena()}
}

// ArenaLive returns the referenced and total arena id counts across the
// global diagram's three reflected component tables. Its quadrant component
// is the set's quadrant diagram and counts there.
func (d *GlobalDiagram) ArenaLive() (live, total int) { return d.d.ArenaLive() }

// compactAround returns an equivalent diagram over garbage-free arenas,
// around quad, the compaction of its quadrant component.
func (d *GlobalDiagram) compactAround(quad *QuadrantDiagram) *GlobalDiagram {
	return &GlobalDiagram{d: d.d.CompactArena(quad.d)}
}

// ArenaLive returns the referenced and total arena id counts of the wrapped
// diagram's result table.
func (d *DynamicDiagram) ArenaLive() (live, total int) { return d.d.ArenaLive() }

// CompactArena returns an equivalent diagram over a garbage-free arena.
func (d *DynamicDiagram) CompactArena() *DynamicDiagram {
	return &DynamicDiagram{d: d.d.CompactArena(), byID: d.byID}
}

// ArenaLive sums the arena usage of every table in the set, each counted
// once: the quadrant table, the global diagram's three reflected tables,
// and the dynamic table.
func (s *DiagramSet) ArenaLive() (live, total int) {
	if s.Quadrant != nil {
		l, t := s.Quadrant.ArenaLive()
		live, total = live+l, total+t
	}
	if s.Global != nil {
		l, t := s.Global.ArenaLive()
		live, total = live+l, total+t
	}
	if s.Dynamic != nil {
		l, t := s.Dynamic.ArenaLive()
		live, total = live+l, total+t
	}
	return live, total
}

// ArenaGarbageRatio returns the fraction of the set's arenas holding
// unreferenced results, in [0, 1].
func (s *DiagramSet) ArenaGarbageRatio() float64 {
	live, total := s.ArenaLive()
	if total == 0 {
		return 0
	}
	return float64(total-live) / float64(total)
}

// CompactArenas returns an equivalent set whose arenas hold no garbage. The
// receiver is unchanged; answers are identical cell for cell.
func (s *DiagramSet) CompactArenas() *DiagramSet {
	ns := &DiagramSet{Points: s.Points, Quadrant: s.Quadrant.CompactArena()}
	ns.Global = s.Global.compactAround(ns.Quadrant)
	if s.Dynamic != nil {
		ns.Dynamic = s.Dynamic.CompactArena()
	}
	return ns
}
