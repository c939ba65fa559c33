package sched

import (
	"astro/internal/hw"
	"astro/internal/sim"
)

// GTS reimplements ARM's Global Task Scheduling, the paper's OS baseline:
// every core is visible to the scheduler; per-task load tracking migrates
// compute-intensive tasks to big cores and light tasks to LITTLE cores,
// with periodic balancing to avoid crowding the big cluster (Sec. 4.2).
type GTS struct {
	// UpLoad is the tracked-load threshold above which a task belongs on a
	// big core; DownLoad the threshold below which it belongs on a LITTLE.
	UpLoad   float64
	DownLoad float64
}

// NewGTS returns GTS with the default thresholds.
func NewGTS() *GTS { return &GTS{UpLoad: 0.55, DownLoad: 0.25} }

// Name implements sim.OSPolicy.
func (g *GTS) Name() string { return "gts" }

// leastLoaded continues a least-loaded scan over cores from best (-1 to
// start fresh), preferring prefer on ties.
func leastLoaded(m *sim.Machine, best int, cores []int, prefer int) int {
	bestLen := 0
	if best >= 0 {
		bestLen = m.QueueLen(best)
	}
	for _, ci := range cores {
		l := m.QueueLen(ci)
		if best == -1 || l < bestLen || (l == bestLen && ci == prefer) {
			best, bestLen = ci, l
		}
	}
	return best
}

// PlaceThread implements sim.OSPolicy. New tasks start on big cores
// (performance-first, as GTS does); thereafter tracked load decides.
func (g *GTS) PlaceThread(m *sim.Machine, t *sim.Thread) int {
	bigs, littles := m.ActiveCoreIDsByType()
	switch {
	case len(bigs) == 0:
		return leastLoaded(m, -1, littles, t.Core())
	case len(littles) == 0:
		return leastLoaded(m, -1, bigs, t.Core())
	case t.Instructions() == 0 || t.Load >= g.UpLoad:
		return leastLoaded(m, -1, bigs, t.Core())
	case t.Load <= g.DownLoad:
		return leastLoaded(m, -1, littles, t.Core())
	default:
		// One scan over the bigs then the littles.
		return leastLoaded(m, leastLoaded(m, -1, bigs, t.Core()), littles, t.Core())
	}
}

// Rebalance implements sim.OSPolicy: up-migrate heavy tasks stuck on LITTLE
// cores, down-migrate light tasks hogging big cores, then even out queue
// lengths inside each cluster.
func (g *GTS) Rebalance(m *sim.Machine) {
	bigs, littles := m.ActiveCoreIDsByType()
	if len(bigs) > 0 && len(littles) > 0 {
		for _, t := range m.Threads() {
			if !t.Ready() {
				continue
			}
			onBig := m.CoreType(t.Core()) == hw.Big
			if !onBig && t.Load >= g.UpLoad {
				target := leastLoaded(m, -1, bigs, t.Core())
				if m.QueueLen(target) <= m.QueueLen(t.Core()) {
					m.MigrateThread(t, target)
				}
			} else if onBig && t.Load > 0 && t.Load <= g.DownLoad {
				target := leastLoaded(m, -1, littles, t.Core())
				if m.QueueLen(target) <= m.QueueLen(t.Core())+1 {
					m.MigrateThread(t, target)
				}
			}
		}
	}
	g.evenCluster(m, bigs)
	g.evenCluster(m, littles)
}

func (g *GTS) evenCluster(m *sim.Machine, cores []int) {
	if len(cores) < 2 {
		return
	}
	for iter := 0; iter < 8; iter++ {
		minC, maxC := -1, -1
		minL, maxL := 0, 0
		for _, ci := range cores {
			l := m.QueueLen(ci)
			if minC == -1 || l < minL {
				minC, minL = ci, l
			}
			if maxC == -1 || l > maxL {
				maxC, maxL = ci, l
			}
		}
		if maxL-minL <= 1 {
			return
		}
		moved := false
		for _, t := range m.Threads() {
			if t.Ready() && t.Core() == maxC && m.MigrateThread(t, minC) {
				moved = true
				break
			}
		}
		if !moved {
			return
		}
	}
}
