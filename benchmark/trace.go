package main

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"slices"
	"time"

	"adhocnet/internal/core"
	"adhocnet/internal/graph"
	"adhocnet/internal/mobility"
	"adhocnet/internal/obs"
	"adhocnet/internal/scenario"
	"adhocnet/internal/spatial"
	"adhocnet/internal/xrand"
)

// Registry metric names the traced run reads (see core/obsmetrics.go).
const (
	ctrMSTRepairs  = "adhocnet_kinetic_mst_repairs_total"
	ctrMSTRebuilds = "adhocnet_kinetic_mst_rebuilds_total"
	ctrMSTDirty    = "adhocnet_kinetic_mst_dirty_fallbacks_total"
	ctrMSTRounds   = "adhocnet_kinetic_mst_rounds_total"
	ctrMSTCands    = "adhocnet_kinetic_mst_candidates_total"
	ctrSeqTraj     = "adhocnet_scheduler_sequential_trajectories_total"
	ctrPooledTraj  = "adhocnet_scheduler_pooled_trajectories_total"
	ctrStalls      = "adhocnet_scheduler_producer_stalls_total"
	histStallNs    = "adhocnet_scheduler_producer_stall_ns"
	histRing       = "adhocnet_scheduler_ring_occupancy"
	histLag        = "adhocnet_scheduler_reduction_lag"
	spatialPrefix  = "adhocnet_spatial_"
)

// runTraced measures the per-layer catalog. Each round takes the next of the
// run's inputs, cycling through them as runEndToEnd does, and runs it at each
// worker count twice, once with observability off and once with a live
// registry: that gives the tracing overhead and checks that traced results
// match untraced ones. The first input is
// then traced once more at each worker count, and every deterministic
// registry count must repeat exactly. Last, the benchmark times its own
// calls into each layer on the first input's snapshots.
func runTraced(ctx context.Context, w workload, seed uint64, dur time.Duration, log io.Writer) (tally, map[string]float64, error) {
	values := map[string]float64{}
	build, err := timeBatches(w, seed, func(_ int, data []byte) error {
		_, err := buildScenario(data)
		return err
	})
	if err != nil {
		return tally{}, nil, err
	}
	values["scenario.build_s"] = build

	scs, err := buildInputs(w, seed)
	if err != nil {
		return tally{}, nil, err
	}
	chk := newChecker(w, seed)
	wmax := maxWorkers()
	plain := map[int]byInput{1: newByInput(w), wmax: newByInput(w)}
	traced := map[int]byInput{1: newByInput(w), wmax: newByInput(w)}
	snaps := map[int][]obs.Snapshot{} // live registries by worker count, in round order
	start := time.Now()
	round := 0
	for ; !passDone(w, round, start, dur); round++ {
		i := round % w.inputs
		chk.round(i)
		for _, workers := range []int{1, wmax} {
			for pass := 0; pass < 2; pass++ {
				var reg *obs.Registry
				if (pass+round)%2 == 1 {
					reg = obs.NewRegistry()
				}
				runtime.GC()
				t0 := time.Now()
				got, err := w.rep(ctx, scs[i], workers, reg)
				secs := time.Since(t0).Seconds()
				chk.check(w.calls(), got, err)
				if reg == nil {
					plain[workers][i] = append(plain[workers][i], secs)
					continue
				}
				traced[workers][i] = append(traced[workers][i], secs)
				snaps[workers] = append(snaps[workers], reg.Snapshot())
			}
		}
	}
	values["trace.overhead_frac"] = (traced[1].median()+traced[wmax].median())/(plain[1].median()+plain[wmax].median()) - 1

	sc := scs[0]
	chk.round(0)
	var counts tally
	again := map[int]obs.Snapshot{}
	for _, workers := range []int{1, wmax} {
		reg := obs.NewRegistry()
		got, err := w.rep(ctx, sc, workers, reg)
		chk.check(w.calls(), got, err)
		again[workers] = reg.Snapshot()
		counts.attempted++
		if !maps.Equal(deterministicCounts(snaps[workers][0]), deterministicCounts(again[workers])) {
			counts.failed++
		}
	}

	n := uint64(sc.Network.Nodes)
	s1, sMax := snaps[1][0], snaps[wmax][0]
	for _, b := range []string{"grid", "kdtree"} {
		for _, what := range []string{"rebuilds", "updates", "update_rebuilds", "minpairs_rounds"} {
			ctr := spatialPrefix + what + `_total{backend="` + b + `"}`
			values["spatial."+b+"."+what] = float64(s1.Counters[ctr])
			values["spatial."+b+"."+what+".wmax"] = float64(sMax.Counters[ctr])
		}
		ctr := spatialPrefix + `auto_picks_total{backend="` + b + `"}`
		values["spatial.auto_picks."+b] = float64(s1.Counters[ctr])
		values["spatial.auto_picks."+b+".wmax"] = float64(sMax.Counters[ctr])
	}
	repairs, rebuilds, cands := s1.Counters[ctrMSTRepairs], s1.Counters[ctrMSTRebuilds], s1.Counters[ctrMSTCands]
	values["graph.repair_frac"] = ratio(float64(repairs), float64(repairs+rebuilds))
	values["graph.mst_candidates"] = float64(cands)
	// Every repair accepts exactly n-1 of its candidates: the new tree.
	values["graph.mst_accept_ratio"] = ratio(float64(repairs*(n-1)), float64(cands))
	values["graph.mst_rounds"] = float64(s1.Counters[ctrMSTRounds])
	values["graph.mst_dirty_fallbacks"] = float64(s1.Counters[ctrMSTDirty])

	histSum := func(snaps []obs.Snapshot, name string) float64 {
		return medianOf(snaps, func(s obs.Snapshot) float64 { return float64(s.Histograms[name].Sum) })
	}
	histMean := func(snaps []obs.Snapshot, name string) float64 {
		return medianOf(snaps, func(s obs.Snapshot) float64 {
			h := s.Histograms[name]
			return ratio(float64(h.Sum), float64(h.Count))
		})
	}
	// The scheduler's figures are medians over the first pass, one traced
	// repetition per input.
	pass := snaps[wmax][:min(len(snaps[wmax]), w.inputs)]
	values["core.produce_ns"] = histSum(pass, obs.MetricProduceNs)
	values["core.eval_ns"] = histSum(pass, obs.MetricEvalNs)
	values["core.merge_ns"] = histSum(pass, obs.MetricMergeNs)
	values["core.producer_stall_ns"] = histSum(pass, histStallNs)
	values["core.producer_stalls"] = medianOf(pass, func(s obs.Snapshot) float64 { return float64(s.Counters[ctrStalls]) })
	values["core.ring_occupancy_mean"] = histMean(pass, histRing)
	values["core.reduction_lag_mean"] = histMean(pass, histLag)
	values["core.seq_trajectories"] = float64(sMax.Counters[ctrSeqTraj])
	values["core.pooled_trajectories"] = float64(sMax.Counters[ctrPooledTraj])

	var r90 float64
	if w.structure {
		est, err := core.EstimateRanges(ctx, sc.Network, sc.Config, sc.Targets)
		if err != nil {
			return tally{}, nil, err
		}
		e, err := est.TimeFraction(0.9)
		if err != nil {
			return tally{}, nil, err
		}
		r90 = e.Mean
	}
	var layerTally tally
	named, err := measureLayers(sc, w.structure, r90, values, &layerTally)
	if err != nil {
		return tally{}, nil, err
	}
	// The scheduler's eval time at Workers=1 on the first input covers
	// exactly the snapshots measureLayers replays, evaluated by the same
	// calls.
	values["trace.coverage"] = ratio(named, histSum([]obs.Snapshot{snaps[1][0], again[1]}, obs.MetricEvalNs))

	fmt.Fprintf(log, "%s seed=%d traced: %d rounds over %d inputs, each at w1 and w%d; %d/%d core calls failed, %d/%d count repeats differed, %d/%d layer checks failed\n",
		w.name, seed, round, w.inputs, wmax, chk.failed, chk.attempted,
		counts.failed, counts.attempted, layerTally.failed, layerTally.attempted)
	t := tally{
		attempted: chk.attempted + counts.attempted + layerTally.attempted,
		failed:    chk.failed + counts.failed + layerTally.failed,
	}
	return t, values, nil
}

// deterministicCounts keeps the registry counters that are functions of the
// workload alone. Producer stalls depend on how the evaluators were
// scheduled, so they are left out, as are all histograms (timings, and
// occupancy samples taken at scheduling-dependent moments).
func deterministicCounts(s obs.Snapshot) map[string]uint64 {
	out := maps.Clone(s.Counters)
	delete(out, ctrStalls)
	return out
}

func medianOf(snaps []obs.Snapshot, f func(obs.Snapshot) float64) float64 {
	xs := make([]float64, len(snaps))
	for i, s := range snaps {
		xs[i] = f(s)
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerClock accumulates the wall time and call count of each timed layer
// call.
type layerClock struct {
	sum   map[string]time.Duration
	count map[string]int
}

func (c *layerClock) since(name string, t0 time.Time) {
	d := time.Since(t0)
	c.sum[name] += d
	c.count[name]++
}

// meanNs is the mean time per call in nanoseconds.
func (c *layerClock) meanNs(name string) float64 {
	return ratio(float64(c.sum[name].Nanoseconds()), float64(c.count[name]))
}

// measureLayers replays every iteration's trajectory exactly as the core
// calls generate it (same per-iteration random streams), and on every
// snapshot times the benchmark's own calls into the mobility, spatial and
// graph packages. The grid is built at the MST's opening scale
// r0 = extent / n^(1/d). Each snapshot's kinetic profile is checked against
// the rebuilt one. It stores the per-call means into values and returns the
// summed time of the calls the scheduler's evaluator makes at Workers=1.
func measureLayers(sc *scenario.Scenario, structure bool, r90 float64, values map[string]float64, t *tally) (float64, error) {
	net := sc.Network
	n, dim := net.Nodes, net.Region.Dim
	c := &layerClock{sum: map[string]time.Duration{}, count: map[string]int{}}
	var ixBuild, ixUpdate spatial.Index
	var kdBuild, kdUpdate spatial.KDTree
	wsKinetic, wsPlain, wsGraph := graph.NewWorkspace(), graph.NewWorkspace(), graph.NewWorkspace()
	wsKinetic.SetKinetic(true)
	wsGraph.SetKinetic(true)
	uf := graph.NewUnionFind(n)
	labels := make([]int32, n)
	noPair := func(i, j int, d2 float64) {}
	type link struct {
		d2   float64
		i, j int
	}
	var links []link
	addLink := func(i, j int, d2 float64) { links = append(links, link{d2, i, j}) }
	moves, movedPoints := 0, 0

	rngs := xrand.New(sc.Config.Seed).SplitN(sc.Config.Iterations)
	for _, rng := range rngs {
		state, err := net.Model.NewState(rng, net.Region, n, net.Placement)
		if err != nil {
			return 0, err
		}
		mover := mobility.TrackMoves(state)
		for step := 0; step < sc.Config.Steps; step++ {
			var moved []int32
			if step > 0 {
				t0 := time.Now()
				mover.Step()
				c.since("mobility.step", t0)
				moved = mover.Moved()
				moves++
				movedPoints += len(moved)
			}
			pts := mover.Positions()
			extent, dims := spatial.BoundingExtent(pts)
			r0 := extent / math.Pow(float64(n), 1/float64(dims))

			t0 := time.Now()
			spatial.ChooseBackend(pts, dim, r0)
			c.since("spatial.choose", t0)
			t0 = time.Now()
			ixBuild.Rebuild(pts, dim, r0)
			c.since("spatial.grid.build", t0)
			t0 = time.Now()
			ixBuild.ForEachPairWithin(r0, noPair)
			c.since("spatial.grid.pairs", t0)
			t0 = time.Now()
			kdBuild.Rebuild(pts, dim)
			c.since("spatial.kdtree.build", t0)
			if step == 0 {
				ixUpdate.Rebuild(pts, dim, r0)
				kdUpdate.Rebuild(pts, dim)
			} else {
				t0 = time.Now()
				ixUpdate.Update(moved)
				c.since("spatial.grid.update", t0)
				t0 = time.Now()
				kdUpdate.Update(moved)
				c.since("spatial.kdtree.update", t0)
			}
			// The tree MST's annulus rounds as GeoMST runs them on the
			// k-d tree: rings doubling from r0/8, each asking for the
			// minimal link between every pair of current components,
			// accepted in (d2, i, j) order. Each round is one timed call.
			uf.Reset(n)
			prev2, r := -1.0, r0/8
			for uf.Count() > 1 {
				for i := range labels {
					labels[i] = uf.Find(int32(i))
				}
				links = links[:0]
				t0 = time.Now()
				kdBuild.MinPairsByLabel(labels, prev2, r, addLink)
				c.since("spatial.kdtree.minpairs", t0)
				slices.SortFunc(links, func(a, b link) int {
					return cmp.Or(cmp.Compare(a.d2, b.d2), cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j))
				})
				for _, l := range links {
					uf.Union(int32(l.i), int32(l.j))
				}
				prev2, r = r*r, 2*r
			}

			t0 = time.Now()
			pk := wsKinetic.ProfileKinetic(pts, dim, moved)
			c.since("graph.profile_kinetic", t0)
			t0 = time.Now()
			kept := pk.Clone()
			c.since("graph.clone", t0)
			t0 = time.Now()
			pp := wsPlain.Profile(pts, dim)
			c.since("graph.profile", t0)
			t.attempted++
			if !slices.Equal(kept.MergeRadii(), pp.MergeRadii()) || kept.Critical() != pp.Critical() {
				t.failed++
			}
			t0 = time.Now()
			wsPlain.GeoMST(pts, dim)
			c.since("graph.mst", t0)

			if structure {
				t0 = time.Now()
				g := wsGraph.PointGraphKinetic(pts, dim, r90, moved)
				c.since("graph.pointgraph", t0)
				t0 = time.Now()
				structureOf(g)
				c.since("graph.structure", t0)
			}
		}
	}

	values["mobility.step_ns"] = c.meanNs("mobility.step")
	values["mobility.moved_frac"] = ratio(float64(movedPoints), float64(moves*n))
	for _, name := range []string{
		"spatial.choose", "spatial.grid.build", "spatial.grid.update", "spatial.grid.pairs",
		"spatial.kdtree.build", "spatial.kdtree.update", "spatial.kdtree.minpairs",
		"graph.profile", "graph.profile_kinetic", "graph.clone", "graph.pointgraph", "graph.structure",
	} {
		values[name+"_ns"] = c.meanNs(name)
	}
	values["graph.replay_ns"] = max(0, c.meanNs("graph.profile")-c.meanNs("graph.mst"))
	named := c.sum["graph.profile_kinetic"] + c.sum["graph.clone"] + c.sum["graph.pointgraph"] + c.sum["graph.structure"]
	return float64(named.Nanoseconds()), nil
}

// structureOf computes the per-snapshot structure metrics EvaluateStructure
// computes.
func structureOf(g *graph.Adjacency) {
	g.DegreeStats()
	g.Components()
	g.HopStats()
	g.ArticulationPoints()
	g.IsBiconnected()
}
