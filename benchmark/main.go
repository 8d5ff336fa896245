// Command benchmark is the repository's benchmark: it runs one workload
// through the public core entry points, checks every result bit for bit, and
// prints the workload's metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 64, "failed": 0, "metrics": {"run_s.w1": {"value": 0.31, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end catalog (endToEnd), measured
// with observability off. With -trace 1 they are the per-layer catalog
// (perLayer): the benchmark times its own calls into each package on the
// workload's snapshots and reads the counts of a live obs.Registry.
//
// Run it from the repository root, which builds it first:
//
//	bash benchmark/run.sh --workload drift --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// defaultSeed is the seed whose result digests are pinned (workload.pinned).
const defaultSeed = 1

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator waits for and pays, per workload.
var endToEnd = []metricDef{
	{"run_s.w1", "s"},     // mean wall time of one repetition at Workers=1
	{"run_s.wmax", "s"},   // the same at Workers=nproc
	{"setup_s", "s"},      // mean time to the first evaluated snapshot
	{"alloc_mb", "MB"},    // heap bytes allocated by a repetition at Workers=1
	{"peak_rss_mb", "MB"}, // resident-set high-water mark of a repetition
}

// perLayer is the traced run's catalog. The layers are the module's
// packages; which end-to-end metric each should move, and on which
// workload, is recorded in benchmark/README.md.
var perLayer = []metricDef{
	{"scenario.build_s", "s"},

	{"mobility.step_ns", "ns"},
	{"mobility.moved_frac", "ratio"},

	{"spatial.choose_ns", "ns"},
	{"spatial.grid.build_ns", "ns"},
	{"spatial.grid.update_ns", "ns"},
	{"spatial.grid.pairs_ns", "ns"},
	{"spatial.kdtree.build_ns", "ns"},
	{"spatial.kdtree.update_ns", "ns"},
	{"spatial.kdtree.minpairs_ns", "ns"},
	{"spatial.grid.rebuilds", "count"},
	{"spatial.grid.updates", "count"},
	{"spatial.grid.update_rebuilds", "count"},
	{"spatial.grid.minpairs_rounds", "count"},
	{"spatial.kdtree.rebuilds", "count"},
	{"spatial.kdtree.updates", "count"},
	{"spatial.kdtree.update_rebuilds", "count"},
	{"spatial.kdtree.minpairs_rounds", "count"},
	{"spatial.auto_picks.grid", "count"},
	{"spatial.auto_picks.kdtree", "count"},
	{"spatial.grid.rebuilds.wmax", "count"},
	{"spatial.grid.updates.wmax", "count"},
	{"spatial.grid.update_rebuilds.wmax", "count"},
	{"spatial.grid.minpairs_rounds.wmax", "count"},
	{"spatial.kdtree.rebuilds.wmax", "count"},
	{"spatial.kdtree.updates.wmax", "count"},
	{"spatial.kdtree.update_rebuilds.wmax", "count"},
	{"spatial.kdtree.minpairs_rounds.wmax", "count"},
	{"spatial.auto_picks.grid.wmax", "count"},
	{"spatial.auto_picks.kdtree.wmax", "count"},

	{"graph.profile_ns", "ns"},
	{"graph.profile_kinetic_ns", "ns"},
	{"graph.replay_ns", "ns"},
	{"graph.clone_ns", "ns"},
	{"graph.pointgraph_ns", "ns"},
	{"graph.structure_ns", "ns"},
	{"graph.repair_frac", "ratio"},
	{"graph.mst_candidates", "count"},
	{"graph.mst_accept_ratio", "ratio"},
	{"graph.mst_rounds", "count"},
	{"graph.mst_dirty_fallbacks", "count"},

	{"core.produce_ns", "ns"},
	{"core.eval_ns", "ns"},
	{"core.merge_ns", "ns"},
	{"core.producer_stall_ns", "ns"},
	{"core.producer_stalls", "count"},
	{"core.ring_occupancy_mean", "count"},
	{"core.reduction_lag_mean", "count"},
	{"core.seq_trajectories", "count"},
	{"core.pooled_trajectories", "count"},

	{"trace.overhead_frac", "ratio"},
	{"trace.coverage", "ratio"},
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult assembles the output line from the measured values, which must
// cover the catalog exactly.
func newResult(t tally, values map[string]float64, catalog []metricDef) (result, error) {
	res := result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(catalog)),
	}
	for _, m := range catalog {
		v, ok := values[m.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite: %v", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(values) != len(catalog) {
		return result{}, fmt.Errorf("measured %d metrics, the catalog has %d", len(values), len(catalog))
	}
	return res, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the arguments, measures the workload and prints the result. It
// returns the process exit code: 0 whenever a result line was printed (a
// failed check shows as "correct": false), 2 on bad arguments or a run that
// could not be measured.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper, drift or clustered")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the repetition loop measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() > 0 || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: benchmark --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := measure(context.Background(), w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 2
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: writing result: %v\n", err)
		return 2
	}
	return 0
}

// writeResult prints the result as one JSON line.
func writeResult(out io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// measure runs one benchmark invocation: the end-to-end run, or the traced
// per-layer run.
func measure(ctx context.Context, w workload, seed uint64, dur time.Duration, traced bool, log io.Writer) (result, error) {
	if traced {
		t, values, err := runTraced(ctx, w, seed, dur, log)
		if err != nil {
			return result{}, err
		}
		return newResult(t, values, perLayer)
	}
	t, values, err := runEndToEnd(ctx, w, seed, dur, log)
	if err != nil {
		return result{}, err
	}
	return newResult(t, values, endToEnd)
}
