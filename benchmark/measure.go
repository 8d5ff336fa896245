package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"adhocnet/internal/core"
	"adhocnet/internal/scenario"
)

const (
	// overrun bounds how far past --seconds a slow host may push the
	// repetition loop before it stops short of a full pass over the inputs.
	overrun = 60 * time.Second
	// setupBatches setup samples are taken, one per input; each is the mean
	// over a batch of calls lasting setupBatchTime, so that a
	// sub-millisecond setup is timed over many calls instead of one.
	setupBatches   = 41
	setupBatchTime = 20 * time.Millisecond

	// refIters is the length of the host reference loop (hostRef), and
	// refNominal the seconds it takes at the nominal host speed: the speed
	// every reported time is rescaled to.
	refIters   = 10_000_000
	refNominal = 0.025
)

// refSink keeps the reference loop's result alive.
var refSink float64

// hostRef returns the wall seconds workers concurrent copies of the host
// reference take. The reference is a fixed computation in the benchmark's
// own code, a dependent chain of floating-point multiply-adds that touches
// no memory, so its time follows only the core speed the host grants. On a
// shared VM that speed drifts by 20-30% over minutes as other guests come
// and go, and every time measured here drifts with it; dividing by the
// reference's time, taken interleaved with the measurement, removes most of
// that drift. The reference never calls into the simulator, so a change to
// the simulator cannot move it.
func hostRef(workers int) float64 {
	out := make([]float64, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 1.0
			for i := 0; i < refIters; i++ {
				x = x*1.0000001 + 1e-9
			}
			out[k] = x
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	refSink = out[0]
	return secs
}

// atNominal rescales a measured time to the nominal host speed, given the
// reference time measured alongside it.
func atNominal(secs, ref float64) float64 { return secs * refNominal / ref }

// buildScenario decodes and builds a generated spec.
func buildScenario(data []byte) (*scenario.Scenario, error) {
	spec, err := scenario.Decode(data)
	if err != nil {
		return nil, err
	}
	return scenario.Default().Build(spec)
}

// buildInput generates and builds the i-th input of a run.
func buildInput(w workload, seed uint64, i int) (*scenario.Scenario, error) {
	data, err := w.input(seed, i)
	if err != nil {
		return nil, err
	}
	return buildScenario(data)
}

// setupOnce is what a user waits for before the first snapshot is
// evaluated: spec decode, scenario build, then core.EstimateRanges at
// Workers=1 on the input cut to one iteration of two snapshots, which places
// the nodes and evaluates the first snapshot in a cold workspace exactly as
// the workload's own w1 repetitions do, kinetic priming included. Two
// snapshots, not one, because core never arms kinetic repair for a
// single-snapshot run; the second is one mobility step and its repair. It
// returns the result's digest.
func setupOnce(ctx context.Context, data []byte) (string, error) {
	sc, err := buildScenario(data)
	if err != nil {
		return "", err
	}
	cfg := sc.Config
	cfg.Iterations, cfg.Steps, cfg.Workers = 1, min(2, cfg.Steps), 1
	est, err := core.EstimateRanges(ctx, sc.Network, cfg, sc.Targets)
	if err != nil {
		return "", err
	}
	return digestRanges(est), nil
}

// timeBatches returns op's mean time in seconds per call at the nominal
// host speed, averaged over setupBatches inputs (i is the input's index in
// the run). On each input op runs once untimed, then repeatedly for at
// least setupBatchTime, and each batch is rescaled by the single-worker host
// reference timed right after it. The mean, not the median, over inputs,
// because the cost of a set-up depends on its input: on paper's n = 64
// placements it differs by up to 1.5x from one input to another, and the
// median of 41 inputs spread 0.26 over five seeds.
func timeBatches(w workload, seed uint64, op func(i int, data []byte) error) (float64, error) {
	samples := make([]float64, setupBatches)
	for i := range samples {
		data, err := w.input(seed, i)
		if err != nil {
			return 0, err
		}
		if err := op(i, data); err != nil {
			return 0, err
		}
		runtime.GC()
		calls := 0
		start := time.Now()
		for time.Since(start) < setupBatchTime {
			if err := op(i, data); err != nil {
				return 0, err
			}
			calls++
		}
		secs := time.Since(start).Seconds() / float64(calls)
		samples[i] = atNominal(secs, hostRef(1))
	}
	return mean(samples), nil
}

// timeSetup measures setup_s. Every timed setup is one operation, which
// fails unless its result digest equals that of the untimed first setup of
// its input.
func timeSetup(ctx context.Context, w workload, seed uint64, t *tally) (float64, error) {
	want := map[int]string{}
	secs, err := timeBatches(w, seed, func(i int, data []byte) error {
		got, err := setupOnce(ctx, data)
		if err != nil {
			return err
		}
		if first, ok := want[i]; !ok {
			want[i] = got
		} else {
			t.attempted++
			if got != first {
				t.failed++
			}
		}
		return nil
	})
	return secs, err
}

// buildInputs generates and builds the inputs a run cycles through.
func buildInputs(w workload, seed uint64) ([]*scenario.Scenario, error) {
	scs := make([]*scenario.Scenario, w.inputs)
	for i := range scs {
		var err error
		if scs[i], err = buildInput(w, seed, i); err != nil {
			return nil, err
		}
	}
	return scs, nil
}

// passDone reports whether the repetition loop stops before its next round:
// once a full pass over the inputs is done and dur has passed, or, on a host
// too slow for a pass, once dur+overrun has.
func passDone(w workload, round int, start time.Time, dur time.Duration) bool {
	elapsed := time.Since(start)
	return (round >= w.inputs && elapsed >= dur) || elapsed >= dur+overrun
}

// byInput collects a run's samples of one quantity, input by input.
type byInput [][]float64

func newByInput(w workload) byInput { return make(byInput, w.inputs) }

// medians returns each input's median sample, for the inputs the run
// reached.
func (b byInput) medians() []float64 {
	var ms []float64
	for _, xs := range b {
		if len(xs) > 0 {
			ms = append(ms, median(xs))
		}
	}
	return ms
}

// median is the median over inputs of each input's median sample, so every
// input weighs the same however many passes over it the run made.
func (b byInput) median() float64 { return median(b.medians()) }

// mean is the mean over inputs of each input's median sample: the expected
// cost of an input. A median over inputs would not do for run times: at
// Workers=nproc about 40% of drift's inputs need a third GeoMST annulus round
// and take twice as long, so the median over a run's inputs jumps between
// the two clusters from one seed to the next, while the mean moves only with
// the share of slow inputs.
func (b byInput) mean() float64 { return mean(b.medians()) }

// runEndToEnd measures the end-to-end catalog with observability off. Each
// round takes the next of the run's inputs, cycling through them, and times
// one repetition at Workers=1 and one at Workers=nproc, swapping which goes
// first from one round to the next, until a full pass is done and dur has
// passed; both worker counts thus see the same inputs and the same host, and
// every run measures the same inputs however fast it goes. Every round also
// times the host reference at both worker counts, and the reported times
// are rescaled to the nominal host speed. Each repetition starts from a
// collected heap whose free memory was returned to the OS, with the
// resident-set high-water mark reset; memory is read only outside the timed
// sections.
func runEndToEnd(ctx context.Context, w workload, seed uint64, dur time.Duration, log io.Writer) (tally, map[string]float64, error) {
	var setupTally tally
	setup, err := timeSetup(ctx, w, seed, &setupTally)
	if err != nil {
		return tally{}, nil, err
	}
	scs, err := buildInputs(w, seed)
	if err != nil {
		return tally{}, nil, err
	}
	chk := newChecker(w, seed)
	w1, wmax, peaks := newByInput(w), newByInput(w), newByInput(w)
	var ref1, refMax, allocs []float64
	start := time.Now()
	round := 0
	for ; !passDone(w, round, start, dur); round++ {
		i := round % w.inputs
		chk.round(i)
		order := []int{1, maxWorkers()}
		if (round+round/w.inputs)%2 == 1 {
			slices.Reverse(order)
		}
		peak := 0.0
		for _, workers := range order {
			if err := resetPeak(); err != nil {
				return tally{}, nil, err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			got, err := w.rep(ctx, scs[i], workers, nil)
			secs := time.Since(t0).Seconds()
			runtime.ReadMemStats(&after)
			chk.check(w.calls(), got, err)
			hwm, err := readPeak()
			if err != nil {
				return tally{}, nil, err
			}
			peak = max(peak, hwm)
			if workers == 1 {
				w1[i] = append(w1[i], secs)
				if round < w.inputs {
					allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc))
				}
			} else {
				wmax[i] = append(wmax[i], secs)
			}
		}
		peaks[i] = append(peaks[i], peak)
		ref1 = append(ref1, hostRef(1))
		refMax = append(refMax, hostRef(maxWorkers()))
	}
	fmt.Fprintf(log, "%s seed=%d: %d rounds over %d inputs, each at w1 and w%d; %d/%d core calls failed; "+
		"wall means %.4fs at w1, %.4fs at w%d; host reference %.4fs at w1, %.4fs at w%d (nominal %.4fs)\n",
		w.name, seed, round, w.inputs, maxWorkers(), chk.failed, chk.attempted,
		w1.mean(), wmax.mean(), maxWorkers(), median(ref1), median(refMax), maxWorkers(), refNominal)
	t := tally{attempted: chk.attempted + setupTally.attempted, failed: chk.failed + setupTally.failed}
	return t, map[string]float64{
		"run_s.w1":    atNominal(w1.mean(), median(ref1)),
		"run_s.wmax":  atNominal(wmax.mean(), median(refMax)),
		"setup_s":     setup,
		"alloc_mb":    trimmedMean(allocs) / 1e6,
		"peak_rss_mb": peaks.median(),
	}, nil
}

// resetPeak hands the heap's free memory back to the OS and resets the
// process's resident-set high-water mark to its current resident set, so
// that readPeak then sees what the code run in between touched.
func resetPeak() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("resetting the resident-set peak: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("resetting the resident-set peak: %w", err)
	}
	return f.Close()
}

// readPeak returns the process's resident-set high-water mark in MB
// (10^6 bytes), the VmHWM line of /proc/self/status.
func readPeak() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// trimmedMean is the mean of the middle half of xs (0 for none). The
// allocation of one input is exact, but slice growth makes it step between a
// few values from input to input, with rare inputs far above the rest: the
// median jumps between steps and the mean follows the rare inputs, while the
// middle half's mean repeats.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// mean returns the mean of xs (0 for none).
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// median returns the median of xs (0 for none); xs is left unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
