package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pasp/internal/experiments"
	"pasp/internal/obs"
	"pasp/internal/serve"
)

// refs are the outputs every workload is checked against. The simulator is
// deterministic, so each must match exactly. They live in ref/ beside the
// benchmark (regenerate with -update-ref); the /predict goldens are the
// serve package's own contract goldens, read in place.
type refs struct {
	// Reproduce maps suite → row → reported value (or "text", the row's
	// printed-text fingerprint) → the value formatted to round-trip.
	Reproduce map[string]map[string]map[string]string
	// Scale maps cell → "simsec@<MHz>"/"simJ@<MHz>" → value.
	Scale map[string]map[string]string
	// Serve holds fingerprints of /sweep, /trace and /robustness bodies.
	Serve serveRefs
	// predict maps "kernel n=N f=F" → the golden /predict body.
	predict map[string][]byte
}

// serveRefs are the serve workloads' reference bodies, by request key.
type serveRefs struct {
	Sweep      map[string]string   `json:"sweep"`
	Trace      map[string]traceRef `json:"trace"`
	Robustness map[string]string   `json:"robustness"`
}

// traceRef pins one /trace body: its fingerprint, size, and the event
// count obs.ValidateChromeTrace found in it when the reference was made.
type traceRef struct {
	Hash   string `json:"hash"`
	Bytes  int    `json:"bytes"`
	Events int    `json:"events"`
}

func refDir(root string) string { return filepath.Join(root, "perfbench", "ref") }

func goldenDir(root string) string {
	return filepath.Join(root, "internal", "serve", "testdata", "contract")
}

func loadRefs(root string) (*refs, error) {
	r := &refs{}
	for name, dst := range map[string]any{
		"reproduce.json": &r.Reproduce, "scale.json": &r.Scale, "serve.json": &r.Serve,
	} {
		data, err := os.ReadFile(filepath.Join(refDir(root), name))
		if err != nil {
			return nil, fmt.Errorf("reading reference: %w", err)
		}
		if err := json.Unmarshal(data, dst); err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
	}
	var err error
	r.predict, err = loadGoldens(goldenDir(root))
	return r, err
}

// loadGoldens parses the contract goldens: a "predict <kernel> n=<N>
// f=<F>" line followed by the exact response body line.
func loadGoldens(dir string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, k := range kernelNames {
		f, err := os.Open(filepath.Join(dir, k+".golden"))
		if err != nil {
			return nil, fmt.Errorf("reading contract golden: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			key, ok := strings.CutPrefix(sc.Text(), "predict ")
			if !ok || !sc.Scan() {
				f.Close()
				return nil, fmt.Errorf("%s.golden: malformed near %q", k, sc.Text())
			}
			out[key] = append([]byte(sc.Text()), '\n')
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fingerprint is the FNV-64a hash of data in hex.
func fingerprint(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return strconv.FormatUint(h.Sum64(), 16)
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// rowRecord is a row's reported values as the reference stores them.
func rowRecord(r childRow) map[string]string {
	out := map[string]string{}
	if r.Text != "" {
		out["text"] = r.Text
	}
	for k, v := range r.Values {
		out[k] = formatValue(v)
	}
	return out
}

// checkRow compares one reproduced row with the reference.
func (r *refs) checkRow(suite string, got childRow) error {
	if got.Err != "" {
		return fmt.Errorf("row %s: %s", got.Name, got.Err)
	}
	want, ok := r.Reproduce[suite][got.Name]
	if !ok {
		return fmt.Errorf("row %s: no reference for suite %s", got.Name, suite)
	}
	rec := rowRecord(got)
	for _, key := range sortedKeys(knownNondeterminism[got.Name]) {
		why := knownNondeterminism[got.Name][key]
		g, gerr := strconv.ParseFloat(rec[key], 64)
		w, werr := strconv.ParseFloat(want[key], 64)
		if gerr != nil || werr != nil || rec[key] == want[key] {
			continue // absent, or exact: the plain comparison decides
		}
		if math.Abs(g-w) > reassocTol*math.Abs(w) {
			return fmt.Errorf("row %s: %s = %s, reference %s", got.Name, key, rec[key], want[key])
		}
		fmt.Fprintf(os.Stderr, "perfbench: known nondeterminism: row %s %s = %s, reference %s (%s)\n",
			got.Name, key, rec[key], want[key], why)
		rec[key] = want[key]
	}
	return sameRecord("row "+got.Name, rec, want)
}

// knownNondeterminism lists, by row and value, the reported values whose
// last bits change from process to process, with the cause. Each must
// match its reference within reassocTol — the error of summing the same
// terms in another order, nothing more — and every inexact match is logged.
// An entry is removed once the program computes the value in a fixed order;
// every other value must match exactly.
var knownNondeterminism = map[string]map[string]string{
	"SegmentModel": {"seg_maxerr%": "core.SegModel.PredictTime sums its phases in map-iteration order"},
}

// reassocTol bounds the relative difference reassociation can cause in a
// sum of a few dozen positive terms.
const reassocTol = 1e-12

// sameRecord reports the first difference between two value records.
func sameRecord(what string, got, want map[string]string) error {
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			return fmt.Errorf("%s: %s = %s, reference %s", what, k, got[k], want[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("%s: unexpected value %s", what, k)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// treeFingerprint hashes the repository's Go sources and module files, in
// path order — the source identity of a checkout that has no git metadata.
func treeFingerprint(root string) string {
	h := fnv.New64a()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the fingerprint
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	return strconv.FormatUint(h.Sum64(), 16)
}

// updateRefs regenerates every reference file from the current tree. The
// scale cells are cross-checked against the committed BENCH_2.json to its
// printed precision, so a regenerated reference cannot silently drift from
// the scaling record.
func updateRefs(ctx context.Context, b *bench, log io.Writer) error {
	r := &refs{Reproduce: map[string]map[string]map[string]string{}, Scale: map[string]map[string]string{}}
	for _, suite := range []string{"paper", "quick"} {
		b.cfg.small = suite == "quick"
		out, err := b.runChild(ctx, "reproduce", rowNames())
		if err != nil {
			return err
		}
		rows := map[string]map[string]string{}
		for _, cr := range out.Rows {
			if cr.Err != "" {
				return fmt.Errorf("row %s: %s", cr.Name, cr.Err)
			}
			rows[cr.Name] = rowRecord(cr)
		}
		r.Reproduce[suite] = rows
		fmt.Fprintf(log, "perfbench: reference %s reproduction: %d rows in %.1fs\n", suite, len(rows), out.SuiteS)
	}
	b.cfg.small = false
	bench2, err := loadBench2(b.cfg.root)
	if err != nil {
		return err
	}
	for _, c := range append(scaleCells(false), scaleCells(true)...) {
		vals, err := c.sweep(ctx)
		if err != nil {
			return err
		}
		for k, v := range vals {
			want, ok := bench2[c.bench2Row()][k]
			if !ok || math.Abs(v-want) > 5e-4*math.Abs(want) {
				return fmt.Errorf("scale %s %s = %g disagrees with BENCH_2.json (%g)", c.name, k, v, want)
			}
		}
		r.Scale[c.name] = valueRecord(vals)
	}
	if r.Serve, err = serveReference(); err != nil {
		return err
	}
	files := map[string]any{"reproduce.json": r.Reproduce, "scale.json": r.Scale, "serve.json": r.Serve}
	for _, name := range sortedKeys(files) {
		data, err := json.MarshalIndent(files[name], "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(refDir(b.cfg.root), name), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func valueRecord(vals map[string]float64) map[string]string {
	out := map[string]string{}
	for k, v := range vals {
		out[k] = formatValue(v)
	}
	return out
}

// loadBench2 reads BENCH_2.json's rows: name → metric → value.
func loadBench2(root string) (map[string]map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCH_2.json"))
	if err != nil {
		return nil, err
	}
	var f struct {
		Benchmarks []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("BENCH_2.json: %w", err)
	}
	out := map[string]map[string]float64{}
	for _, b := range f.Benchmarks {
		out[b.Name] = b.Metrics
	}
	return out, nil
}

// serveReference computes the reference bodies in process, through the
// same handler paserve mounts, on the paper suite paserve runs.
func serveReference() (serveRefs, error) {
	sr := serveRefs{Sweep: map[string]string{}, Trace: map[string]traceRef{}, Robustness: map[string]string{}}
	srv := serve.New(serve.Config{Suite: experiments.Paper(), SuiteName: "paper", Registry: obs.NewRegistry()})
	h := srv.Handler()
	for _, req := range append(hitCatalogue(kernelNames), simCatalogue(kernelNames)...) {
		if req.path == "/predict" {
			continue
		}
		body, status := serveInProcess(h, req)
		if status != http.StatusOK {
			return sr, fmt.Errorf("%s %s: status %d: %s", req.path, req.key, status, body)
		}
		switch req.path {
		case "/sweep":
			sr.Sweep[req.key] = fingerprint(body)
		case "/robustness":
			sr.Robustness[req.key] = fingerprint(body)
		case "/trace":
			n, err := obs.ValidateChromeTrace(body)
			if err != nil {
				return sr, fmt.Errorf("trace %s: %w", req.key, err)
			}
			sr.Trace[req.key] = traceRef{Hash: fingerprint(body), Bytes: len(body), Events: n}
		}
	}
	return sr, nil
}

// serveInProcess runs one request through h on an in-memory recorder.
func serveInProcess(h http.Handler, req request) ([]byte, int) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body)))
	return rec.Body.Bytes(), rec.Code
}
