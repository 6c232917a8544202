package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"pasp/internal/trace"
	"pasp/internal/units"
)

// This file keeps the fmt-based exporters and the json.Unmarshal validator
// that ChromeTrace, SpansChromeTrace and ValidateChromeTrace replaced. They
// are the test oracles: the append-built exporters must match them byte for
// byte, and the single-pass validator must never accept a document the
// reflective one rejects.

// oracleMicros is the old micros: one formatted string per timestamp.
func oracleMicros(sec float64) string {
	return strconv.FormatFloat(units.Seconds(sec).Micros(), 'f', 3, 64)
}

// oracleChromeTrace is the fmt.Fprintf exporter ChromeTrace replaced.
func oracleChromeTrace(l *trace.Log, processName string) []byte {
	events := l.Events()
	ranks := map[int]bool{}
	for _, e := range events {
		ranks[e.Rank] = true
	}
	order := make([]int, 0, len(ranks))
	for r := range ranks {
		order = append(order, r)
	}
	sort.Ints(order)

	var b bytes.Buffer
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	fmt.Fprintf(&b, `{"ph":"M","pid":0,"name":"process_name","args":{"name":%s}}`, jstr(processName))
	for _, r := range order {
		fmt.Fprintf(&b, ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"rank %d\"}}", r, r)
		fmt.Fprintf(&b, ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}", r, r)
	}
	for _, e := range events {
		cname := ""
		if e.Kind >= 0 && e.Kind < trace.NumKinds {
			cname = kindCname[e.Kind]
		}
		fmt.Fprintf(&b, ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s,\"cat\":%s,\"cname\":%s,\"args\":{\"watts\":%.2f}}",
			e.Rank, oracleMicros(e.Start), oracleMicros(e.End-e.Start), jstr(e.Phase), jstr(e.Kind.String()), jstr(cname), e.Watts)
		if e.Kind == trace.Fault || e.Kind == trace.Retry {
			fmt.Fprintf(&b, ",\n{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"name\":%s,\"s\":\"t\"}",
				e.Rank, oracleMicros(e.Start), jstr(e.Kind.String()))
		}
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}

// oracleSpansChromeTrace is the fmt.Fprintf exporter SpansChromeTrace
// replaced.
func oracleSpansChromeTrace(spans []Span, processName string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	fmt.Fprintf(&b, `{"ph":"M","pid":0,"name":"process_name","args":{"name":%s}}`, jstr(processName))
	for _, s := range spans {
		tid := 0
		if s.Rank >= 0 {
			tid = s.Rank + 1
		}
		fmt.Fprintf(&b, ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s,\"cat\":\"span\",\"args\":{",
			tid, oracleMicros(s.Start), oracleMicros(s.End-s.Start), jstr(s.Name))
		for i, a := range s.Attrs {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%s:%s", jstr(a.Key), jstr(a.Value))
		}
		b.WriteString("}}")
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}

// oracleChromeEvent is the schema subset the reflective validator decodes.
type oracleChromeEvent struct {
	Ph   string          `json:"ph"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Ts   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	S    string          `json:"s"`
	Args json.RawMessage `json:"args"`
}

// oracleChromeFile is the top-level trace-event container.
type oracleChromeFile struct {
	DisplayTimeUnit string              `json:"displayTimeUnit"`
	TraceEvents     []oracleChromeEvent `json:"traceEvents"`
}

// oracleValidateChromeTrace is the json.Unmarshal validator
// ValidateChromeTrace replaced.
func oracleValidateChromeTrace(data []byte) (int, error) {
	var f oracleChromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("obs: trace JSON does not parse: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return 0, fmt.Errorf("obs: trace has no events")
	}
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			if !metadataNames[e.Name] {
				return 0, fmt.Errorf("obs: event %d: unknown metadata name %q", i, e.Name)
			}
		case "X":
			if e.Name == "" {
				return 0, fmt.Errorf("obs: event %d: complete event without a name", i)
			}
			if e.Ts == nil || e.Dur == nil {
				return 0, fmt.Errorf("obs: event %d: complete event missing ts/dur", i)
			}
			if *e.Dur < 0 {
				return 0, fmt.Errorf("obs: event %d: negative duration %g", i, *e.Dur)
			}
			if e.Tid == nil {
				return 0, fmt.Errorf("obs: event %d: complete event missing tid", i)
			}
		case "i":
			if e.S != "t" {
				return 0, fmt.Errorf("obs: event %d: instant with scope %q, want thread", i, e.S)
			}
			if e.Ts == nil || e.Tid == nil {
				return 0, fmt.Errorf("obs: event %d: instant missing ts/tid", i)
			}
		default:
			return 0, fmt.Errorf("obs: event %d: unknown phase type %q", i, e.Ph)
		}
	}
	return len(f.TraceEvents), nil
}
