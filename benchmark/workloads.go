package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"

	"adhocnet/internal/core"
	"adhocnet/internal/obs"
	"adhocnet/internal/scenario"
	"adhocnet/internal/xrand"
)

//go:embed workloads/*.json
var specFiles embed.FS

// workload is one set of inputs the benchmark runs. Its scenario spec lives
// in workloads/<name>.json without a seed; input fills in a seed derived
// from the run's, so the simulator receives only the generated spec. Kinetic
// and Spatial are left at auto, so the system's own choices are what gets
// measured.
type workload struct {
	name string
	spec []byte // the seedless scenario spec
	// inputs is how many distinct inputs a run cycles through. Every run
	// measures all of them, however fast it goes, so that two builds of the
	// simulator are always measured on the same inputs; a pass over them
	// takes 15-23 of the run's 30 seconds on the 2-vCPU host of
	// STEADINESS.md.
	inputs int
	// structure adds EvaluateStructure at the estimated r90 to every
	// repetition, after EstimateRanges (the ext-structure flow).
	structure bool
	// pinned are, for the first inputs at defaultSeed, the result digests
	// of one repetition's core calls, in call order.
	pinned [][]string
}

// workloads: why each was chosen, and which layers it loads, is recorded in
// BENCHMARK.json and benchmark/README.md.
var workloads = []workload{
	{name: "paper", spec: mustSpec("paper"), inputs: 12, structure: true, pinned: [][]string{
		{"373ad2d5438f8e0f", "6ddc15c286975733"},
		{"bd0588ffc9df77db", "3165916474ea2730"},
		{"1a6c984abaccf4b5", "8f3aff1bb555991b"},
		{"ff18acca8a6020f5", "a2f8692b7d24c8cd"},
		{"1047e481a488f590", "bd2408f4864e8fe8"},
	}},
	{name: "drift", spec: mustSpec("drift"), inputs: 48, pinned: [][]string{
		{"0b1fe2c984d1f681"}, {"a535836023ab3678"}, {"ad0b4a3f271029d6"}, {"a24615c37faf019e"}, {"67373f7b91095669"},
	}},
	{name: "clustered", spec: mustSpec("clustered"), inputs: 18, pinned: [][]string{
		{"b348627bbcba7818"}, {"3b7bbb4a6e50984f"}, {"bae8293d300650e2"}, {"ff3f4f39a5b1a174"}, {"41c759ed2ca04712"},
	}},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// mustSpec returns the embedded spec workloads/<name>.json.
func mustSpec(name string) []byte {
	data, err := specFiles.ReadFile("workloads/" + name + ".json")
	if err != nil {
		panic(err) // the file set is fixed at build time
	}
	return data
}

// input generates the i-th input of a run at the given seed: the template
// with the run seed set to inputSeed(seed, i).
func (w workload) input(seed uint64, i int) ([]byte, error) {
	spec, err := scenario.Decode(w.spec)
	if err != nil {
		return nil, err
	}
	s := inputSeed(seed, i)
	spec.Run.Seed = &s
	return json.Marshal(spec)
}

// inputSeed is the simulation seed of a run's i-th input: the run seed
// itself for the first, then the run seed's xrand stream. A run measures
// several inputs because the cost of one input is not typical of the
// workload: on uniform n = 8192 placements about one in five needs a third
// GeoMST annulus round, which makes its rebuild path about twice as slow.
// The median over many inputs is a property of the workload, not of one
// draw.
func inputSeed(seed uint64, i int) uint64 {
	s := seed
	r := xrand.New(seed)
	for ; i > 0; i-- {
		s = r.Uint64()
	}
	return s
}

// calls is the number of core calls in one repetition.
func (w workload) calls() int {
	if w.structure {
		return 2
	}
	return 1
}

// maxWorkers is the wmax worker count: one worker per core, never more.
func maxWorkers() int { return runtime.NumCPU() }

// rep runs one repetition of the workload's core calls at the given worker
// count, with telemetry into reg (nil: observability off). It returns one
// digest per completed call; an error ends the repetition early. It refuses
// to run more workers than there are cores.
func (w workload) rep(ctx context.Context, sc *scenario.Scenario, workers int, reg *obs.Registry) ([]string, error) {
	if workers < 1 || workers > runtime.NumCPU() {
		return nil, fmt.Errorf("%d workers on %d cores", workers, runtime.NumCPU())
	}
	cfg := sc.Config
	cfg.Workers = workers
	cfg.Obs = reg
	est, err := core.EstimateRanges(ctx, sc.Network, cfg, sc.Targets)
	if err != nil {
		return nil, err
	}
	digests := []string{digestRanges(est)}
	if !w.structure {
		return digests, nil
	}
	r90, err := est.TimeFraction(0.9)
	if err != nil {
		return digests, err
	}
	st, err := core.EvaluateStructure(ctx, sc.Network, cfg, r90.Mean)
	if err != nil {
		return digests, err
	}
	return append(digests, digestStructure(st)), nil
}

// digester hashes float64 values by their exact bits.
type digester struct{ buf []byte }

func (d *digester) add(vs ...float64) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
	}
}

func (d *digester) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:8])
}

func digestRanges(e core.RangeEstimates) string {
	var d digester
	for _, set := range [][]core.Estimate{e.Time, e.Component} {
		for _, est := range set {
			d.add(est.Target, est.Mean, est.Std, est.Min, est.Max)
			d.add(est.PerIteration...)
		}
	}
	return d.sum()
}

func digestStructure(s core.StructureResult) string {
	var d digester
	d.add(s.Radius, s.MeanDegree, s.MeanIsolated, s.IsolatedOnlyFraction, s.MeanDiameter,
		s.MeanHops, s.MeanArticulation, s.BiconnectedFraction, float64(s.Snapshots))
	return d.sum()
}

// tally counts operations and failed operations.
type tally struct{ attempted, failed int }

// checker decides whether a repetition's results are right. Every round of
// repetitions runs one input; at defaultSeed the reference for the first
// inputs is their pinned digests, otherwise it is the input's first completed
// repetition, so every later one, at either worker count and with tracing on
// or off, must be bit-identical to it.
type checker struct {
	pinned [][]string
	refs   map[int][]string // references established so far, by input
	input  int
	want   []string
	tally
}

func newChecker(w workload, seed uint64) *checker {
	c := &checker{refs: map[int][]string{}}
	if seed == defaultSeed {
		c.pinned = w.pinned
	}
	return c
}

// round starts checking the results of input i.
func (c *checker) round(i int) {
	c.input, c.want = i, c.refs[i]
	if i < len(c.pinned) {
		c.want = c.pinned[i]
	}
}

// check records calls operations; each call whose digest is missing (the
// call or an earlier one failed) or differs from the reference is a failed
// operation.
func (c *checker) check(calls int, got []string, err error) {
	if c.want == nil && err == nil && len(got) == calls {
		c.want = got
		c.refs[c.input] = got
	}
	for i := 0; i < calls; i++ {
		c.attempted++
		if c.want == nil || i >= len(got) || got[i] != c.want[i] {
			c.failed++
		}
	}
}
