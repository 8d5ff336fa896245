package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"adhocnet/internal/scenario"
)

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalog(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if !namePattern.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, namePattern)
		}
		if !unitPattern.MatchString(m.unit) {
			t.Errorf("metric %s has unit %q, which does not match %s", m.name, m.unit, unitPattern)
		}
		if seen[m.name] {
			t.Errorf("metric %s is listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json, which the runs are
// judged by, in step with what the program prints.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, "|"), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program workloads %s", got, want)
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(file.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range file.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] is %s/%s, the program prints %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range file.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(file.PerLayer), len(perLayer))
	}
	for i, m := range file.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] is %s/%s, the program prints %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkersWithinNproc: a repetition asked for more workers than there
// are cores fails instead of running, and no workload spec overrides the
// benchmark's worker counts or the system's own kinetic choice.
func TestWorkersWithinNproc(t *testing.T) {
	w := tiny(t, "drift", 256, 1, 2)
	sc, err := buildInput(w, defaultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.rep(context.Background(), sc, runtime.NumCPU()+1, nil); err == nil {
		t.Errorf("a repetition at %d workers on %d cores ran", runtime.NumCPU()+1, runtime.NumCPU())
	}
	for _, w := range workloads {
		spec, err := scenario.Decode(w.spec)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if spec.Run.Workers != 0 || spec.Run.Kinetic != "" || spec.Run.Seed != nil {
			t.Errorf("%s: spec sets workers %d, kinetic %q or a seed; the benchmark chooses them", w.name, spec.Run.Workers, spec.Run.Kinetic)
		}
	}
}

// tiny returns a shrunken copy of a workload that keeps its shape, for
// tests that run the whole measurement.
func tiny(t *testing.T, name string, nodes, iterations, steps int) workload {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	spec, err := scenario.Decode(w.spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Nodes, spec.Run.Iterations, spec.Run.Steps = nodes, iterations, steps
	if w.spec, err = json.Marshal(spec); err != nil {
		t.Fatal(err)
	}
	w.name += "-tiny"
	w.pinned = nil
	return w
}

// measureLine runs one measurement and parses its printed output line.
func measureLine(t *testing.T, w workload, seed uint64, traced bool) result {
	t.Helper()
	res, err := measure(context.Background(), w, seed, 0, traced, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var parsed result
	if err := dec.Decode(&parsed); err != nil {
		t.Fatalf("output %q does not parse: %v", out.String(), err)
	}
	if !strings.Contains(lines[len(lines)-1], `"correct":`) || !strings.Contains(lines[len(lines)-1], `"attempted":`) ||
		!strings.Contains(lines[len(lines)-1], `"failed":`) || !strings.Contains(lines[len(lines)-1], `"metrics":`) {
		t.Fatalf("output %q lacks a required key", out.String())
	}
	return parsed
}

func TestOutputParses(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, w := range []workload{tiny(t, "paper", 24, 3, 12), tiny(t, "drift", 256, 1, 8)} {
			res := measureLine(t, w, 2, traced)
			catalog := endToEnd
			if traced {
				catalog = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(catalog) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(catalog))
			}
			for _, m := range catalog {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a value in %s", w.name, traced, m.name, v, m.unit)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// TestPerturbedDigestFails pins the right digests, then a wrong one, and
// checks that only the wrong one shows as failed operations.
func TestPerturbedDigestFails(t *testing.T) {
	w := tiny(t, "paper", 24, 3, 12)
	for i := 0; i < w.inputs; i++ {
		sc, err := buildInput(w, defaultSeed, i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.rep(context.Background(), sc, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.pinned = append(w.pinned, got)
	}
	if res := measureLine(t, w, defaultSeed, false); !res.Correct || res.Failed != 0 {
		t.Fatalf("true digests pinned: correct=%v failed=%d", res.Correct, res.Failed)
	}
	w.pinned = slices.Clone(w.pinned)
	w.pinned[2] = []string{w.pinned[2][0], "0123456789abcdef"}
	for _, traced := range []bool{false, true} {
		res := measureLine(t, w, defaultSeed, traced)
		// Input 2's structure call is wrong at both worker counts, and in
		// the traced run also with tracing on.
		want := 2
		if traced {
			want = 4
		}
		if res.Correct || res.Failed != want {
			t.Errorf("perturbed digest, traced=%v: correct=%v failed=%d, want false and %d", traced, res.Correct, res.Failed, want)
		}
	}
}

// TestSameInputsHoweverLong: a run measures the same inputs whether it
// makes one pass over them or several, so the exact allocation figure
// repeats between a short and a longer run at the same seed.
func TestSameInputsHoweverLong(t *testing.T) {
	w := tiny(t, "drift", 256, 1, 8)
	short, err := measure(context.Background(), w, 3, 0, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	long, err := measure(context.Background(), w, 3, 300*time.Millisecond, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if long.Attempted <= short.Attempted {
		t.Fatalf("the longer run made %d operations, the one-pass run %d", long.Attempted, short.Attempted)
	}
	if a, b := short.Metrics["alloc_mb"].Value, long.Metrics["alloc_mb"].Value; a != b {
		t.Errorf("alloc_mb %v after one pass, %v after several", a, b)
	}
}

// TestCheckerCountsMismatches covers what a perturbed digest cannot: an
// input whose worker counts disagree, and a failed call.
func TestCheckerCountsMismatches(t *testing.T) {
	c := newChecker(workload{}, 2)
	c.round(0)
	c.check(2, []string{"a", "b"}, nil)
	c.check(2, []string{"a", "x"}, nil)
	c.round(1)
	c.check(2, []string{"c"}, context.Canceled)
	c.check(2, []string{"c", "d"}, nil)
	c.check(2, []string{"c", "d"}, nil)
	c.round(0)
	c.check(2, []string{"a", "b"}, nil)
	if c.attempted != 12 || c.failed != 3 {
		t.Errorf("attempted=%d failed=%d, want 12 and 3", c.attempted, c.failed)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "drift", "--trace", "2"},
		{"--workload", "drift", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, stdout.String())
		}
	}
}
