package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json: the machine-readable declaration of the
// benchmark's command, workloads and metrics.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestCatalogueMatchesBenchmarkFile holds the metric catalogue in
// metrics.go and the declaration in BENCHMARK.json together.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var e2e, layer []spec
	for _, m := range f.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, spec{m.Name, m.Unit})
	}
	sortSpecs := func(s []spec) []spec {
		s = slices.Clone(s)
		slices.SortFunc(s, func(a, b spec) int { return strings.Compare(a.name, b.name) })
		return s
	}
	if got, want := sortSpecs(e2e), sortSpecs(endToEndSpecs); !slices.Equal(got, want) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, catalogue %v", got, want)
	}
	if got, want := sortSpecs(layer), sortSpecs(layerSpecs()); !slices.Equal(got, want) {
		t.Errorf("per_layer in BENCHMARK.json = %v, catalogue %v", got, want)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("workloads in BENCHMARK.json = %v, benchmark has %v", names, have)
	}
}

// buildBinaries builds the benchmark and paserve for the self-check.
func buildBinaries(t *testing.T) (bench, paserve string) {
	t.Helper()
	dir := t.TempDir()
	bench, paserve = filepath.Join(dir, "perfbench"), filepath.Join(dir, "paserve")
	for _, args := range [][]string{{"build", "-o", bench, "."}, {"build", "-o", paserve, "pasp/cmd/paserve"}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	return bench, paserve
}

// TestOutputContract runs every workload at its smallest size, untraced
// and traced, and parses the last line of stdout against the output
// contract: exactly the keys correct/attempted/failed/metrics, and exactly
// the catalogue's metric names, each once, with its unit and a finite
// value.
func TestOutputContract(t *testing.T) {
	bench, paserve := buildBinaries(t)
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+traced, func(t *testing.T) {
				cmd := exec.Command(bench, "-small", "-workload", w.Name, "-seed", "7", "-seconds", "1",
					"-trace", traced, "-root", "..", "-paserve", paserve)
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\nstderr:\n%s", err, stderr.String())
				}
				want := endToEndSpecs
				if traced == "1" {
					want = layerSpecs()
				}
				checkContract(t, stdout.String(), want)
			})
		}
	}
}

// checkContract parses the result line and compares it with the catalogue.
func checkContract(t *testing.T, stdout string, want []spec) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last stdout line is not a JSON object: %v\n%s", err, last)
	}
	if got := sortedKeys(keys); !slices.Equal(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result keys = %v", got)
	}
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted json.Number                `json:"attempted"`
		Failed    json.Number                `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	attempted, aerr := res.Attempted.Int64()
	failed, ferr := res.Failed.Int64()
	if err := errors.Join(aerr, ferr); err != nil || attempted < 1 || failed != 0 || !res.Correct {
		t.Fatalf("correct=%v attempted=%s failed=%s (%v)", res.Correct, res.Attempted, res.Failed, err)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, s := range want {
		raw, ok := res.Metrics[s.name]
		if !ok {
			t.Errorf("metric %s missing", s.name)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var m struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := dec.Decode(&m); err != nil || m.Value == nil {
			t.Errorf("metric %s: %s (%v)", s.name, raw, err)
			continue
		}
		if m.Unit != s.unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
			t.Errorf("metric %s = %v %s, want a finite value in %s", s.name, *m.Value, m.Unit, s.unit)
		}
	}
	for name := range res.Metrics {
		if !slices.ContainsFunc(want, func(s spec) bool { return s.name == name }) {
			t.Errorf("unexpected metric %s", name)
		}
	}
}

// TestFailsOutsideRepository runs the command from a directory holding
// only BENCHMARK.json and the benchmark's own files: it must exit non-zero
// without printing a result.
func TestFailsOutsideRepository(t *testing.T) {
	f := readBenchmarkFile(t)
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, "perfbench", path)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying the benchmark: %v", err)
	}
	args := append(f.Command[1:], "--workload", f.Workloads[0].Name, "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd := exec.Command(f.Command[0], args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Fatalf("exit 0 outside the repository; stdout:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), `"metrics"`) {
		t.Fatalf("printed a result outside the repository:\n%s", stdout.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPermuteIsSeededPermutation(t *testing.T) {
	names := rowNames()
	a, b := permute(names, 1), permute(names, 1)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different orders")
	}
	if slices.Equal(a, permute(names, 2)) {
		t.Error("seeds 1 and 2 gave the same order")
	}
	sorted := slices.Clone(a)
	slices.Sort(sorted)
	want := slices.Clone(names)
	slices.Sort(want)
	if !slices.Equal(sorted, want) {
		t.Error("permute lost or duplicated rows")
	}
}
