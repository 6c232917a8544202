package obs

import (
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pasp/internal/trace"
)

// edgeCaseLog covers what the byte-equality test needs beyond a
// kernel run: every kind and two outside the enum, non-finite and signed
// zero watts, very large and very small times, negative durations, ranks
// out of order and phase strings that need escaping.
func edgeCaseLog() *trace.Log {
	phases := []string{
		"init", `say "hi"`, `back\slash`, "ctl\x00\x01\x1f\x7f", "<b>&amp;</b>",
		"ünïcødé ∑", "bad\xff\xfeutf8", "line\u2028sep\u2029", "",
	}
	watts := []float64{40, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, 1e-300, 12.345, 0.005}
	times := []float64{0, 1, 1e-300, 5e-10, 1e-7, 123456.789, 1e15, 1e300, -2.5}
	kinds := []trace.Kind{trace.Compute, trace.Comm, trace.Fault, trace.Retry, trace.NumKinds, -1}
	ranks := []int{3, 0, 1, 3, -2, 1024}
	l := &trace.Log{}
	for i := 0; i < 64; i++ {
		start := times[i%len(times)]
		l.Append(trace.Event{
			Rank:  ranks[i%len(ranks)],
			Phase: phases[i%len(phases)],
			Kind:  kinds[i%len(kinds)],
			Start: start,
			End:   start + times[(i/3)%len(times)],
			Watts: watts[i%len(watts)],
		})
	}
	return l
}

// agreementCases pin where the single-pass validator and the reflective
// oracle must agree, and the two documented ways it is stricter.
var agreementCases = []struct {
	name string
	doc  string
	// accept is the oracle's verdict; strict marks documents the oracle
	// accepts and ValidateChromeTrace rejects on purpose.
	accept, strict bool
}{
	{"minimal X", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":0}]}`, true, false},
	{"null top level", `null`, false, false},
	{"array top level", `[{"ph":"X","name":"x","ts":0,"dur":1,"tid":0}]`, false, false},
	{"trailing data", `{"traceEvents":[{"ph":"M","name":"thread_name"}]} x`, false, false},
	{"two documents", `{"traceEvents":[{"ph":"M","name":"thread_name"}]}{}`, false, false},
	{"surrounding space", " \t\r\n{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"thread_name\"}]}\n ", true, false},
	{"byte order mark", "\xef\xbb\xbf{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"thread_name\"}]}", false, false},
	{"null events", `{"traceEvents":null}`, false, false},
	{"object events", `{"traceEvents":{}}`, false, false},
	{"null event", `{"traceEvents":[null]}`, false, false},
	{"number event", `{"traceEvents":[1]}`, false, false},
	{"trailing comma", `{"traceEvents":[{"ph":"M","name":"thread_name"},]}`, false, false},
	{"unit number", `{"displayTimeUnit":5,"traceEvents":[{"ph":"M","name":"thread_name"}]}`, false, false},
	{"unit null", `{"displayTimeUnit":null,"traceEvents":[{"ph":"M","name":"thread_name"}]}`, true, false},
	{"ph null", `{"traceEvents":[{"ph":null,"name":"thread_name"}]}`, false, false},
	{"ph number", `{"traceEvents":[{"ph":1,"name":"thread_name"}]}`, false, false},
	{"ph escaped", `{"traceEvents":[{"ph":"\u0058","name":"x","ts":0,"dur":1,"tid":0}]}`, true, false},
	{"key escaped", `{"traceEvents":[{"\u0070h":"M","name":"thread_name"}]}`, true, false},
	{"name escape only", `{"traceEvents":[{"ph":"X","name":"\n","ts":0,"dur":1,"tid":0}]}`, true, false},
	{"name invalid utf8", "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"\xff\",\"ts\":0,\"dur\":1,\"tid\":0}]}", true, false},
	{"raw control char", "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\x01\",\"ts\":0,\"dur\":1,\"tid\":0}]}", false, false},
	{"bad escape", `{"traceEvents":[{"ph":"X","name":"\x","ts":0,"dur":1,"tid":0}]}`, false, false},
	{"short unicode escape", `{"traceEvents":[{"ph":"X","name":"\u12","ts":0,"dur":1,"tid":0}]}`, false, false},
	{"lone surrogate", `{"traceEvents":[{"ph":"X","name":"\ud800","ts":0,"dur":1,"tid":0}]}`, true, false},
	{"pid float", `{"traceEvents":[{"ph":"M","name":"thread_name","pid":1.5}]}`, false, false},
	{"pid string", `{"traceEvents":[{"ph":"M","name":"thread_name","pid":"1"}]}`, false, false},
	{"pid null", `{"traceEvents":[{"ph":"M","name":"thread_name","pid":null}]}`, true, false},
	{"tid exponent", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":1e2}]}`, false, false},
	{"tid overflow", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":99999999999999999999}]}`, false, false},
	{"tid max int", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":-9223372036854775808}]}`, true, false},
	{"tid minus zero", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":-0}]}`, true, false},
	{"tid null", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":null}]}`, false, false},
	{"ts out of range", `{"traceEvents":[{"ph":"X","name":"x","ts":1e400,"dur":1,"tid":0}]}`, false, false},
	{"ts null", `{"traceEvents":[{"ph":"X","name":"x","ts":null,"dur":1,"tid":0}]}`, false, false},
	{"ts bool", `{"traceEvents":[{"ph":"X","name":"x","ts":true,"dur":1,"tid":0}]}`, false, false},
	{"leading zero", `{"traceEvents":[{"ph":"X","name":"x","ts":01,"dur":1,"tid":0}]}`, false, false},
	{"bare minus", `{"traceEvents":[{"ph":"X","name":"x","ts":-,"dur":1,"tid":0}]}`, false, false},
	{"bare fraction", `{"traceEvents":[{"ph":"X","name":"x","ts":1.,"dur":1,"tid":0}]}`, false, false},
	{"dur minus zero", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":-0.0,"tid":0}]}`, true, false},
	{"dur underflow", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":-1e-400,"tid":0}]}`, true, false},
	{"dur tiny negative", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":-5e-324,"tid":0}]}`, false, false},
	{"args anything", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":0,"args":{"a":[1e999,{"PH":null}],"b":"é"}}]}`, true, false},
	{"args invalid", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":0,"args":{"a":tru}}]}`, false, false},
	{"unknown keys", `{"other":[1,2],"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":0,"cname":"bad","id":7}]}`, true, false},
	{"last key wins", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":0,"ph":"Q"}]}`, false, false},
	{"case folded ph", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":0,"PH":"Q"}]}`, false, false},
	{"case folded key", `{"traceEvents":[{"PH":"X","name":"x","ts":0,"dur":1,"tid":0}]}`, true, true},
	{"long s key", `{"traceEvents":[{"ph":"i","name":"x","ts":0,"tid":0,"ſ":"t"}]}`, true, true},
	{"case folded top key", `{"TraceEvents":[{"ph":"M","name":"thread_name"}]}`, true, true},
	{"repeated key", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"tid":0,"tid":1}]}`, true, true},
	{"repeated events", `{"traceEvents":[{"ph":"M","name":"thread_name"}],"traceEvents":[{"ph":"M","name":"thread_name"}]}`, true, true},
	{"deepest args", nestedArgs(maxTraceDepth - 3), true, false},
	{"too deep args", nestedArgs(maxTraceDepth - 2), false, false},
}

// nestedArgs wraps an event's args in k arrays: the document nests k+3
// deep (top object, traceEvents, event, then the arrays).
func nestedArgs(k int) string {
	return `{"traceEvents":[{"ph":"M","name":"thread_name","args":` +
		strings.Repeat("[", k) + strings.Repeat("]", k) + `}]}`
}

func TestValidateChromeTraceAgreesWithOracle(t *testing.T) {
	for _, c := range agreementCases {
		_, oerr := oracleValidateChromeTrace([]byte(c.doc))
		_, err := ValidateChromeTrace([]byte(c.doc))
		if (oerr == nil) != c.accept {
			t.Errorf("%s: oracle error %v, table says accept=%v", c.name, oerr, c.accept)
		}
		if want := c.accept && !c.strict; (err == nil) != want {
			t.Errorf("%s: ValidateChromeTrace error %v, want accept=%v", c.name, err, want)
		}
	}
}

// goldenTraces returns the committed ping-pong traces.
func goldenTraces(t testing.TB) [][]byte {
	var out [][]byte
	for _, name := range []string{"pingpong_clean.trace.json", "pingpong_chaos.trace.json"} {
		data, err := os.ReadFile(filepath.Join("..", "mpi", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzValidateChromeTrace holds the single-pass validator to the reflective
// oracle: it never accepts a document the oracle rejects, and when both
// accept they count the same events.
func FuzzValidateChromeTrace(f *testing.F) {
	for _, doc := range garbageTraces {
		f.Add([]byte(doc))
	}
	for _, c := range agreementCases {
		if len(c.doc) < 1024 {
			f.Add([]byte(c.doc))
		}
	}
	for _, data := range goldenTraces(f) {
		f.Add(data)
	}
	f.Add(ChromeTrace(syntheticLog(), "pasp"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ValidateChromeTrace(data)
		on, oerr := oracleValidateChromeTrace(data)
		if err == nil && oerr != nil {
			t.Fatalf("accepted (%d events) what the oracle rejects: %v\n%q", n, oerr, data)
		}
		if err == nil && n != on {
			t.Fatalf("counted %d events, oracle %d\n%q", n, on, data)
		}
	})
}

// rankLog builds a clean multi-rank log of about n events.
func rankLog(n int) *trace.Log {
	l := &trace.Log{}
	for i := 0; i < n; i++ {
		t := float64(i) * 1e-3
		l.Append(trace.Event{Rank: i % 16, Phase: "phase-" + string(rune('a'+i%4)), Kind: trace.Kind(i % int(trace.NumKinds)), Start: t, End: t + 5e-4, Watts: 21.5})
	}
	return l
}

// TestValidateChromeTraceAllocs pins the validator's allocation count: it
// must not grow with the number of events.
func TestValidateChromeTraceAllocs(t *testing.T) {
	small := ChromeTrace(rankLog(16), "pasp")
	large := ChromeTrace(rankLog(20000), "pasp")
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := ValidateChromeTrace(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	if b > a || b > 0 {
		t.Errorf("ValidateChromeTrace allocates %v times on %d bytes and %v on %d; want 0 for both", a, len(small), b, len(large))
	}
}

// BenchmarkChromeTrace compares the exporter with its fmt-based oracle on a
// 16-rank log of 100k events.
func BenchmarkChromeTrace(b *testing.B) {
	l := rankLog(100000)
	for name, export := range map[string]func(*trace.Log, string) []byte{"append": ChromeTrace, "oracle": oracleChromeTrace} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.SetBytes(int64(len(export(l, "pasp"))))
			}
		})
	}
}

// BenchmarkValidateChromeTrace compares the single-pass validator with its
// reflective oracle on the same trace.
func BenchmarkValidateChromeTrace(b *testing.B) {
	data := ChromeTrace(rankLog(100000), "pasp")
	for name, validate := range map[string]func([]byte) (int, error){"scan": ValidateChromeTrace, "oracle": oracleValidateChromeTrace} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := validate(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fixedEdges are values at appendFixed's boundaries: signed zeros,
// subnormals, exact halves at both precisions, carries into a new digit,
// the 2^52 hand-over to strconv and the non-finite values.
var fixedEdges = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, 1e-300, 4e-4, 5e-4, 0.0005000000000000001, 0.0625, -0.0625, 0.125, 0.375, 0.005, 0.015, 0.025,
	0.9995, 0.99949999999999994, 9.9995, 99.9995, 999.9995, 1, 10, 100, 1000,
	123456.789, 1.5, 2.5, 0.5, 0.001, 0.0015, 0.0025, 0x1p52 - 0.5, 0x1p52 - 1, 0x1p52, 0x1p52 + 1,
	0x1p53, 1e15, 1e16, 1e17, 1e300, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// checkFixed compares appendFixed with strconv at every precision it
// handles.
func checkFixed(t *testing.T, v float64) {
	t.Helper()
	for prec := 0; prec <= 3; prec++ {
		got := string(appendFixed(nil, v, prec))
		if want := strconv.FormatFloat(v, 'f', prec, 64); got != want {
			t.Fatalf("appendFixed(%b, %d) = %s, strconv %s", v, prec, got, want)
		}
	}
}

func TestAppendFixedMatchesStrconv(t *testing.T) {
	for _, v := range fixedEdges {
		checkFixed(t, v)
		checkFixed(t, math.Nextafter(v, math.Inf(1)))
		checkFixed(t, math.Nextafter(v, math.Inf(-1)))
	}
	// Random bit patterns cover every exponent; k/2000 and its neighbours
	// land on and beside the exact halves of the third decimal.
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100000; i++ {
		if i%10 == 0 {
			checkFixed(t, math.Float64frombits(rng.Uint64()))
		}
		h := float64(rng.IntN(1<<30)) / 2000
		checkFixed(t, h)
		checkFixed(t, math.Nextafter(h, 0))
		checkFixed(t, -rng.Float64()*math.Pow(10, float64(rng.IntN(20)-4)))
	}
}

// FuzzAppendFixed holds appendFixed to strconv on arbitrary bit patterns.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range fixedEdges {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFixed(t, math.Float64frombits(bits))
	})
}
