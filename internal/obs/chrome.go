package obs

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
	"strconv"

	"pasp/internal/trace"
	"pasp/internal/units"
)

// kindCname maps each trace.Kind to a Chrome reserved color name, indexed
// by the enum so exporters never switch on magic strings. Perfetto and
// chrome://tracing both honor these: green for compute, grey-blue for
// communication waits, orange/red for injected faults and retries.
var kindCname = [trace.NumKinds]string{
	trace.Compute: "thread_state_running",
	trace.Comm:    "thread_state_iowait",
	trace.Fault:   "bad",
	trace.Retry:   "terrible",
}

// jstr renders s as a JSON string literal through encoding/json, whose
// HTML-safe escaping of <, > and & the exported bytes keep.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// A Go string always marshals; keep the signature alloc-free for
		// callers rather than plumbing an impossible error.
		return `""`
	}
	return string(b)
}

// kindFrag holds the JSON every event of one kind shares, built once: the
// tail of a complete event from "cat" up to the watts value, and the tail
// of its instant marker from "name" to the closing brace.
type kindFrag struct {
	x, i string
}

var kindFrags = func() (f [trace.NumKinds]kindFrag) {
	for k := range f {
		f[k] = kindTail(trace.Kind(k))
	}
	return f
}()

// kindTail builds k's fragments; kinds outside the enum have no cname.
func kindTail(k trace.Kind) kindFrag {
	cname := ""
	if k >= 0 && k < trace.NumKinds {
		cname = kindCname[k]
	}
	name := jstr(k.String())
	return kindFrag{
		x: `,"cat":` + name + `,"cname":` + jstr(cname) + `,"args":{"watts":`,
		i: `,"name":` + name + `,"s":"t"}`,
	}
}

// Per-event byte estimates that presize the export buffer: the fixed JSON
// of a complete event with typical numbers, an instant marker, and a span.
// An undershoot only costs append growth; the bytes never depend on them.
const (
	xEventBytes    = 150
	instantBytes   = 80
	rankMetaBytes  = 160
	spanEventBytes = 112
	attrBytes      = 8
)

// chromeWriter appends trace-event JSON to one presized buffer. Each
// distinct string is escaped once per export; the literal is cached.
type chromeWriter struct {
	b    []byte
	lits map[string]string
}

// newChromeWriter starts a document of about size bytes with its
// process_name metadata event.
func newChromeWriter(size int, processName string) *chromeWriter {
	w := &chromeWriter{b: make([]byte, 0, size), lits: map[string]string{}}
	w.b = append(w.b, `{"displayTimeUnit":"ms","traceEvents":[`+"\n"+`{"ph":"M","pid":0,"name":"process_name","args":{"name":`...)
	w.str(processName)
	w.b = append(w.b, "}}"...)
	return w
}

// str appends s as a JSON string literal.
func (w *chromeWriter) str(s string) {
	lit, ok := w.lits[s]
	if !ok {
		lit = jstr(s)
		w.lits[s] = lit
	}
	w.b = append(w.b, lit...)
}

// micros appends a virtual-time quantity in microseconds with fixed
// nanosecond resolution, the precision of the simulator's virtual clock
// printouts (TimelineCSV uses %.9f seconds — the same granularity).
func (w *chromeWriter) micros(sec float64) {
	w.b = appendFixed(w.b, units.Seconds(sec).Micros(), 3)
}

// fixedScale is 10^prec for the precisions appendFixed handles.
var fixedScale = [...]uint64{1, 10, 100, 1000}

// appendFixed appends v exactly as strconv.AppendFloat(b, v, 'f', prec, 64)
// does, for prec ≤ 3. strconv formats a fixed precision through its
// arbitrary-precision decimal path; here the rounding is done in integers
// instead. A finite v below 2^52 in magnitude is mant × 2^e with e < 0, so
// v × 10^prec rounded to an integer is (mant × 10^prec) >> −e, rounded
// half to even on the exact remainder — the rounding strconv applies —
// and mant × 10^prec < 2^63 cannot overflow. Other values (non-finite,
// or 2^52 and beyond) go to strconv. TestAppendFixedMatchesStrconv and
// FuzzAppendFixed hold the two to byte equality.
func appendFixed(b []byte, v float64, prec int) []byte {
	bits := math.Float64bits(v)
	biased := int(bits>>52) & 0x7ff
	mant := bits & (1<<52 - 1)
	if biased == 0 {
		biased = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	shift := 1075 - biased // v = ±mant × 2^-shift
	if biased == 0x7ff || shift <= 0 {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	scale := fixedScale[prec]
	var q uint64
	if shift < 64 {
		x := mant * scale
		q = x >> shift
		rem, half := x&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, q/scale, 10)
	if prec == 0 {
		return b
	}
	b = append(b, '.')
	frac := q % scale
	for d := scale / 10; d > 0; d /= 10 {
		b = append(b, byte('0'+frac/d%10))
	}
	return b
}

func (w *chromeWriter) int(v int) {
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

// finish closes the document and returns its bytes.
func (w *chromeWriter) finish() []byte {
	return append(w.b, "\n]}\n"...)
}

// ChromeTrace renders the merged trace log as Chrome trace-event JSON —
// the format Perfetto and chrome://tracing load directly. One track (tid)
// per rank, one complete ("X") event per trace interval colored by kind,
// and one instant ("i") event at the start of every injected fault or
// retry so chaos shows up as markers even when the interval is too thin to
// see. The bytes are appended in a fixed order into one presized buffer,
// so identical logs produce identical files.
func ChromeTrace(l *trace.Log, processName string) []byte {
	events := l.Events()
	var order []int
	size := 128 + len(processName)
	for i, e := range events {
		if i == 0 || e.Rank != events[i-1].Rank {
			order = append(order, e.Rank)
		}
		size += xEventBytes + len(e.Phase)
		if e.Kind == trace.Fault || e.Kind == trace.Retry {
			size += instantBytes
		}
	}
	sort.Ints(order)
	order = slices.Compact(order)
	size += rankMetaBytes * len(order)

	w := newChromeWriter(size, processName)
	for _, r := range order {
		w.b = append(w.b, ",\n"+`{"ph":"M","pid":0,"tid":`...)
		w.int(r)
		w.b = append(w.b, `,"name":"thread_name","args":{"name":"rank `...)
		w.int(r)
		w.b = append(w.b, `"}}`+",\n"+`{"ph":"M","pid":0,"tid":`...)
		w.int(r)
		w.b = append(w.b, `,"name":"thread_sort_index","args":{"sort_index":`...)
		w.int(r)
		w.b = append(w.b, "}}"...)
	}
	for _, e := range events {
		var frag kindFrag
		if e.Kind >= 0 && e.Kind < trace.NumKinds {
			frag = kindFrags[e.Kind]
		} else {
			frag = kindTail(e.Kind)
		}
		w.b = append(w.b, ",\n"+`{"ph":"X","pid":0,"tid":`...)
		w.int(e.Rank)
		w.b = append(w.b, `,"ts":`...)
		w.micros(e.Start)
		w.b = append(w.b, `,"dur":`...)
		w.micros(e.End - e.Start)
		w.b = append(w.b, `,"name":`...)
		w.str(e.Phase)
		w.b = append(w.b, frag.x...)
		w.b = appendFixed(w.b, e.Watts, 2)
		w.b = append(w.b, "}}"...)
		if e.Kind == trace.Fault || e.Kind == trace.Retry {
			w.b = append(w.b, ",\n"+`{"ph":"i","pid":0,"tid":`...)
			w.int(e.Rank)
			w.b = append(w.b, `,"ts":`...)
			w.micros(e.Start)
			w.b = append(w.b, frag.i...)
		}
	}
	return w.finish()
}

// SpansChromeTrace renders a span hierarchy (campaign and run spans) as
// trace-event JSON. Rank-owned spans land on the rank's track; campaign
// and run spans land on track 0 so nesting shows as stacked slices.
func SpansChromeTrace(spans []Span, processName string) []byte {
	size := 128 + len(processName)
	for _, s := range spans {
		size += spanEventBytes + len(s.Name)
		for _, a := range s.Attrs {
			size += attrBytes + len(a.Key) + len(a.Value)
		}
	}
	w := newChromeWriter(size, processName)
	for _, s := range spans {
		tid := 0
		if s.Rank >= 0 {
			tid = s.Rank + 1
		}
		w.b = append(w.b, ",\n"+`{"ph":"X","pid":0,"tid":`...)
		w.int(tid)
		w.b = append(w.b, `,"ts":`...)
		w.micros(s.Start)
		w.b = append(w.b, `,"dur":`...)
		w.micros(s.End - s.Start)
		w.b = append(w.b, `,"name":`...)
		w.str(s.Name)
		w.b = append(w.b, `,"cat":"span","args":{`...)
		for i, a := range s.Attrs {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.str(a.Key)
			w.b = append(w.b, ':')
			w.str(a.Value)
		}
		w.b = append(w.b, "}}"...)
	}
	return w.finish()
}

// NestSpans rebases spans recorded on a different clock than their parent
// so the exported X events nest visually. The serving layer's request
// spans run on the server's wall clock while the campaign spans the store
// records run on the simulator's virtual clock (starting at zero); a
// campaign span exported as-is would render at the origin instead of
// inside the request that triggered it. NestSpans shifts any span that
// starts before its parent to the parent's (already rebased) start,
// propagating the shift to its own descendants, and returns a new slice —
// the input is not modified. Parents must precede children in the slice,
// which is the order Recorder.Spans returns.
func NestSpans(spans []Span) []Span {
	out := append([]Span(nil), spans...)
	idx := make(map[int]int, len(out))
	for i, s := range out {
		idx[s.ID] = i
	}
	shift := make([]float64, len(out))
	for i := range out {
		s := &out[i]
		if s.Parent < 0 {
			continue
		}
		p, ok := idx[s.Parent]
		if !ok || p >= i {
			continue
		}
		shift[i] = shift[p]
		if s.Start+shift[i] < out[p].Start+shift[p] {
			shift[i] = out[p].Start + shift[p] - s.Start
		}
	}
	for i := range out {
		out[i].Start += shift[i]
		out[i].End += shift[i]
	}
	return out
}
