package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// metadataNames are the "M" event names the exporters emit and the
// trace-event format defines for process/thread labeling.
var metadataNames = map[string]bool{
	"process_name":       true,
	"process_sort_index": true,
	"thread_name":        true,
	"thread_sort_index":  true,
}

// ValidateChromeTrace parses data as trace-event JSON and checks the
// invariants Perfetto relies on: every event is a known phase type, "X"
// events carry a name, timestamp and non-negative duration, instants are
// thread-scoped, metadata names are from the defined set. It returns the
// number of events, so smoke tests can assert non-emptiness.
//
// The check is one pass over the bytes with no reflection and no
// per-event allocation. It enforces what decoding into the trace-event
// schema with encoding/json enforces: the whole document is valid JSON
// (nesting included, to encoding/json's depth limit of 10000), the top
// level is an object, "traceEvents" is an array of objects, "pid" and
// "tid" are integers that fit an int, "ts" and "dur" are numbers in
// float64 range, and "ph", "name", "cat", "s" and "displayTimeUnit" are
// strings; null stands for an absent field, as it does there. It is
// stricter in two ways, never looser: a schema key must match in exact
// case (encoding/json also matches "PH" to "ph", or "ſ" to "s"; such keys
// are rejected here rather than matched), and a schema key may appear
// only once per object. A string is decoded through encoding/json only
// when it contains an escape.
func ValidateChromeTrace(data []byte) (int, error) {
	s := traceScanner{data: data}
	n, err := s.document()
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("obs: trace has no events")
	}
	return n, nil
}

// maxTraceDepth is encoding/json's nesting limit: objects and arrays nest
// at most this deep.
const maxTraceDepth = 10000

// traceScanner walks a trace-event document once, front to back.
type traceScanner struct {
	data  []byte
	pos   int
	depth int
}

// syntax reports malformed JSON at the current offset.
func (s *traceScanner) syntax(what string) error {
	return fmt.Errorf("obs: trace JSON does not parse: %s at offset %d", what, s.pos)
}

// mistyped reports a well-formed value of the wrong JSON type for its key.
func (s *traceScanner) mistyped(key, want string) error {
	return fmt.Errorf("obs: trace JSON does not parse: %q at offset %d is not %s", key, s.pos, want)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *traceScanner) peek() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// open consumes the '{' or '[' at pos.
func (s *traceScanner) open() error {
	s.pos++
	s.depth++
	if s.depth > maxTraceDepth {
		return s.syntax("nesting deeper than 10000")
	}
	return nil
}

// more reports whether another member or element follows in the container
// that closes with end, consuming the separator or the closing byte.
func (s *traceScanner) more(end byte, first bool) (bool, error) {
	c := s.peek()
	if c == end {
		s.pos++
		s.depth--
		return false, nil
	}
	if first {
		return true, nil
	}
	if c != ',' {
		return false, s.syntax("expected ',' or '" + string(end) + "'")
	}
	s.pos++
	return true, nil
}

// str scans the string literal at pos and returns its raw contents and
// whether they contain an escape.
func (s *traceScanner) str() ([]byte, bool, error) {
	d := s.data
	start := s.pos + 1
	esc := false
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return d[start:i], esc, nil
		case c == '\\':
			esc = true
			if i+1 >= len(d) {
				s.pos = len(d)
				return nil, false, s.syntax("unterminated string")
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(d) || !isHex(d[i+2]) || !isHex(d[i+3]) || !isHex(d[i+4]) || !isHex(d[i+5]) {
					s.pos = i
					return nil, false, s.syntax("invalid \\u escape")
				}
				i += 6
			default:
				s.pos = i
				return nil, false, s.syntax("invalid escape")
			}
		case c < 0x20:
			s.pos = i
			return nil, false, s.syntax("control character in string")
		default:
			i++
		}
	}
	s.pos = len(d)
	return nil, false, s.syntax("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits advances past a run of decimal digits and reports whether there
// was at least one.
func (s *traceScanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && isDigit(s.data[s.pos]) {
		s.pos++
	}
	return s.pos > start
}

// num scans the number literal at pos and returns it, whether it is an
// integer literal (no fraction, no exponent) and whether it has an
// exponent.
func (s *traceScanner) num() (lit []byte, isInt, hasExp bool, err error) {
	d, start := s.data, s.pos
	if s.pos < len(d) && d[s.pos] == '-' {
		s.pos++
	}
	switch {
	case s.pos < len(d) && d[s.pos] == '0':
		s.pos++
	case !s.digits():
		return nil, false, false, s.syntax("invalid number")
	}
	isInt = true
	if s.pos < len(d) && d[s.pos] == '.' {
		isInt = false
		s.pos++
		if !s.digits() {
			return nil, false, false, s.syntax("invalid number fraction")
		}
	}
	if s.pos < len(d) && (d[s.pos] == 'e' || d[s.pos] == 'E') {
		isInt, hasExp = false, true
		s.pos++
		if s.pos < len(d) && (d[s.pos] == '+' || d[s.pos] == '-') {
			s.pos++
		}
		if !s.digits() {
			return nil, false, false, s.syntax("invalid number exponent")
		}
	}
	return d[start:s.pos], isInt, hasExp, nil
}

// literal consumes word (true, false or null) at pos.
func (s *traceScanner) literal(word string) error {
	if !bytes.HasPrefix(s.data[s.pos:], []byte(word)) {
		return s.syntax("invalid literal")
	}
	s.pos += len(word)
	return nil
}

// value scans any JSON value, checking only its syntax.
func (s *traceScanner) value() error {
	switch c := s.peek(); c {
	case '{':
		if err := s.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			ok, err := s.more('}', first)
			if err != nil || !ok {
				return err
			}
			if _, err := s.key(); err != nil {
				return err
			}
			if err := s.value(); err != nil {
				return err
			}
		}
	case '[':
		if err := s.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			ok, err := s.more(']', first)
			if err != nil || !ok {
				return err
			}
			if err := s.value(); err != nil {
				return err
			}
		}
	case '"':
		_, _, err := s.str()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	case 0:
		if s.pos >= len(s.data) {
			return s.syntax("unexpected end of input")
		}
		return s.syntax("invalid character")
	default:
		if c == '-' || isDigit(c) {
			_, _, _, err := s.num()
			return err
		}
		return s.syntax("invalid character")
	}
}

// key scans an object key and its colon and returns the key's text,
// decoded when it carries escapes.
func (s *traceScanner) key() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.syntax("expected object key")
	}
	raw, esc, err := s.str()
	if err != nil {
		return nil, err
	}
	if esc {
		raw = unescape(s.data[s.pos-len(raw)-2 : s.pos])
	}
	if s.peek() != ':' {
		return nil, s.syntax("expected ':' after object key")
	}
	s.pos++
	return raw, nil
}

// unescape decodes a string literal that contains escapes.
func unescape(lit []byte) []byte {
	var v string
	if err := json.Unmarshal(lit, &v); err != nil {
		// The scanner already checked the literal's syntax.
		return nil
	}
	return []byte(v)
}

// text scans a string-or-null field value: null leaves it absent (nil).
func (s *traceScanner) text(key string) ([]byte, error) {
	switch s.peek() {
	case '"':
		raw, esc, err := s.str()
		if err != nil || !esc {
			return raw, err
		}
		return unescape(s.data[s.pos-len(raw)-2 : s.pos]), nil
	case 'n':
		return nil, s.literal("null")
	}
	if err := s.value(); err != nil {
		return nil, err
	}
	return nil, s.mistyped(key, "a string")
}

// shortFloat bounds the literals number and negative judge without
// strconv: with no exponent and at most this many bytes, a literal is
// below 10^300 in magnitude, so it cannot overflow, and a nonzero one is
// at least 10^-298, so it cannot underflow to zero either.
const shortFloat = 300

// number scans a number-or-null field value and returns its literal, nil
// for null. An integer field must hold an integer literal that fits an
// int; a float field must hold a number in float64 range.
func (s *traceScanner) number(key string, integer bool) ([]byte, error) {
	switch c := s.peek(); {
	case c == 'n':
		return nil, s.literal("null")
	case c == '-' || isDigit(c):
		lit, isInt, hasExp, err := s.num()
		if err != nil {
			return nil, err
		}
		if integer {
			if !isInt {
				return nil, s.mistyped(key, "an integer")
			}
			// Nine digits fit any int; longer literals need the range check.
			if len(lit) > 9 {
				if _, err := strconv.ParseInt(string(lit), 10, strconv.IntSize); err != nil {
					return nil, s.mistyped(key, "an int")
				}
			}
			return lit, nil
		}
		if hasExp || len(lit) > shortFloat {
			if _, err := strconv.ParseFloat(string(lit), 64); err != nil {
				return nil, s.mistyped(key, "a float64")
			}
		}
		return lit, nil
	}
	if err := s.value(); err != nil {
		return nil, err
	}
	return nil, s.mistyped(key, "a number")
}

// negative reports whether a float literal number accepted is below zero:
// minus zero and negative values that underflow to it are not.
func negative(lit []byte) bool {
	if lit[0] != '-' {
		return false
	}
	if len(lit) > shortFloat || bytes.IndexAny(lit, "eE") >= 0 {
		v, _ := strconv.ParseFloat(string(lit), 64)
		return v < 0
	}
	return bytes.ContainsAny(lit, "123456789")
}

// foldedKey rejects a key that equals a schema key under Unicode simple
// case folding, the match encoding/json falls back to. Folding keeps an
// ASCII key's length, so only keys of a schema key's length are compared,
// unless the key has other runes: "ſ" folds to "s" and "K" to "k".
func foldedKey(key []byte, schema ...string) error {
	ascii := utf8.RuneCount(key) == len(key)
	for _, k := range schema {
		if (len(key) == len(k) || !ascii) && strings.EqualFold(string(key), k) {
			return fmt.Errorf("obs: trace JSON key %q must be spelled %q", key, k)
		}
	}
	return nil
}

// document scans the top-level object and returns its event count. A
// top-level null, which encoding/json decodes as a trace without events,
// is rejected here as not being an object.
func (s *traceScanner) document() (int, error) {
	if s.peek() != '{' {
		if err := s.value(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("obs: trace JSON does not parse: top level is not an object")
	}
	n, err := s.file()
	if err != nil {
		return 0, err
	}
	if s.peek() != 0 || s.pos < len(s.data) {
		return 0, s.syntax("data after top-level value")
	}
	return n, nil
}

// file scans the top-level object's members.
func (s *traceScanner) file() (int, error) {
	if err := s.open(); err != nil {
		return 0, err
	}
	n := 0
	var seenUnit, seenEvents bool
	for first := true; ; first = false {
		ok, err := s.more('}', first)
		if err != nil || !ok {
			return n, err
		}
		key, err := s.key()
		if err != nil {
			return 0, err
		}
		switch string(key) {
		case "traceEvents":
			if seenEvents {
				return 0, fmt.Errorf("obs: trace JSON repeats key %q", key)
			}
			seenEvents = true
			n, err = s.events()
		case "displayTimeUnit":
			if seenUnit {
				return 0, fmt.Errorf("obs: trace JSON repeats key %q", key)
			}
			seenUnit = true
			_, err = s.text("displayTimeUnit")
		default:
			if err = foldedKey(key, "traceEvents", "displayTimeUnit"); err == nil {
				err = s.value()
			}
		}
		if err != nil {
			return 0, err
		}
	}
}

// events scans the traceEvents array, checking each event as it closes.
// A null array, a trace without events to encoding/json, is rejected as
// not being an array.
func (s *traceScanner) events() (int, error) {
	if s.peek() != '[' {
		if err := s.value(); err != nil {
			return 0, err
		}
		return 0, s.mistyped("traceEvents", "an array")
	}
	if err := s.open(); err != nil {
		return 0, err
	}
	n := 0
	for first := true; ; first = false {
		ok, err := s.more(']', first)
		if err != nil || !ok {
			return n, err
		}
		if err := s.event(n); err != nil {
			return 0, err
		}
		n++
	}
}

// The schema keys of one event, as bits of traceEvent.seen.
const (
	keyPh = 1 << iota
	keyPid
	keyTid
	keyTs
	keyDur
	keyName
	keyCat
	keyS
	keyArgs
)

// eventKeys are the schema keys, for the case check of unknown keys.
var eventKeys = []string{"ph", "pid", "tid", "ts", "dur", "name", "cat", "s", "args"}

// traceEvent is what one event's checks need; a nil field is absent.
type traceEvent struct {
	seen            int
	ph, name, scope []byte
	tid, ts, dur    []byte
}

// event scans element i of traceEvents and checks its phase rules. A null
// element, an event without a phase to encoding/json, is rejected as not
// being an object.
func (s *traceScanner) event(i int) error {
	if s.peek() != '{' {
		if err := s.value(); err != nil {
			return err
		}
		return fmt.Errorf("obs: trace JSON does not parse: event %d is not an object", i)
	}
	var e traceEvent
	if err := s.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := s.more('}', first)
		if err != nil {
			return err
		}
		if !ok {
			return e.check(i)
		}
		key, err := s.key()
		if err != nil {
			return err
		}
		bit := 0
		switch string(key) {
		case "ph":
			bit = keyPh
			e.ph, err = s.text("ph")
		case "pid":
			bit = keyPid
			_, err = s.number("pid", true)
		case "tid":
			bit = keyTid
			e.tid, err = s.number("tid", true)
		case "ts":
			bit = keyTs
			e.ts, err = s.number("ts", false)
		case "dur":
			bit = keyDur
			e.dur, err = s.number("dur", false)
		case "name":
			bit = keyName
			e.name, err = s.text("name")
		case "cat":
			bit = keyCat
			_, err = s.text("cat")
		case "s":
			bit = keyS
			e.scope, err = s.text("s")
		case "args":
			bit = keyArgs
			err = s.value()
		default:
			if err = foldedKey(key, eventKeys...); err == nil {
				err = s.value()
			}
		}
		if err != nil {
			return err
		}
		if e.seen&bit != 0 {
			return fmt.Errorf("obs: event %d: repeats key %q", i, key)
		}
		e.seen |= bit
	}
}

// check applies the phase rules to a scanned event.
func (e *traceEvent) check(i int) error {
	switch string(e.ph) {
	case "M":
		if !metadataNames[string(e.name)] {
			return fmt.Errorf("obs: event %d: unknown metadata name %q", i, e.name)
		}
	case "X":
		if len(e.name) == 0 {
			return fmt.Errorf("obs: event %d: complete event without a name", i)
		}
		if e.ts == nil || e.dur == nil {
			return fmt.Errorf("obs: event %d: complete event missing ts/dur", i)
		}
		if negative(e.dur) {
			return fmt.Errorf("obs: event %d: negative duration %s", i, e.dur)
		}
		if e.tid == nil {
			return fmt.Errorf("obs: event %d: complete event missing tid", i)
		}
	case "i":
		if string(e.scope) != "t" {
			return fmt.Errorf("obs: event %d: instant with scope %q, want thread", i, e.scope)
		}
		if e.ts == nil || e.tid == nil {
			return fmt.Errorf("obs: event %d: instant missing ts/tid", i)
		}
	default:
		return fmt.Errorf("obs: event %d: unknown phase type %q", i, e.ph)
	}
	return nil
}
