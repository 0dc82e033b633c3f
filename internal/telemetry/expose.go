package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"strconv"
)

// TextExposer renders counters and gauges in the Prometheus text exposition
// format ("name value" lines, '#'-prefixed comments). It exists so a
// long-running service can publish the same telemetry counters the JSON
// reports carry without taking on a metrics dependency: every line derives
// from deterministic integers (plus whatever gauges the caller adds), and
// lines are emitted in call order, so scrapes of identical state are
// byte-identical.
//
// Write errors are sticky: the first one is remembered, later calls are
// no-ops, and Flush reports it.
type TextExposer struct {
	w      *bufio.Writer
	prefix string
	err    error
}

// NewTextExposer wraps w; every metric name is prepended with prefix
// (conventionally the service name plus '_').
func NewTextExposer(w io.Writer, prefix string) *TextExposer {
	return &TextExposer{w: bufio.NewWriter(w), prefix: prefix}
}

// Comment emits a '#'-prefixed comment line.
func (e *TextExposer) Comment(text string) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, "# %s\n", text)
}

// Int emits one integer-valued metric line.
func (e *TextExposer) Int(name string, v int64) { e.IntLabeled(name, v) }

// Float emits one float-valued metric line ('g' formatting, so integral
// values stay terse and scrapes stay deterministic).
func (e *TextExposer) Float(name string, v float64) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, "%s%s %s\n", e.prefix, name, strconv.FormatFloat(v, 'g', -1, 64))
}

// IntLabeled emits one integer-valued metric line with labels, given as
// key, value pairs emitted in call order (so scrapes stay byte-identical);
// without labels the line carries no braces.
func (e *TextExposer) IntLabeled(name string, v int64, labels ...string) {
	if e.err != nil {
		return
	}
	set := ""
	for i := 0; i+1 < len(labels); i += 2 {
		set += fmt.Sprintf(",%s=%q", labels[i], labels[i+1])
	}
	if set != "" {
		set = "{" + set[1:] + "}"
	}
	_, e.err = fmt.Fprintf(e.w, "%s%s%s %d\n", e.prefix, name, set, v)
}

// BuildInfo emits the conventional build_info gauge — a constant 1 whose
// version label carries the build — so dashboards can join fleet metrics
// against deployed versions.
func (e *TextExposer) BuildInfo(version string) {
	e.IntLabeled("build_info", 1, "version", version)
}

// Dist emits a distribution as a Prometheus summary-style metric family:
// _count and _sum always (so rates and averages derive server-side), _min
// and _max when non-empty (NaN never leaks into the exposition).
func (e *TextExposer) Dist(name string, d *Dist) {
	e.Int(name+"_count", int64(d.N()))
	e.Float(name+"_sum", d.Sum())
	if d.N() > 0 {
		e.Float(name+"_min", d.Min())
		e.Float(name+"_max", d.Max())
	}
}

// Counters emits every counter of a *Campaign, *Cache or *Fleet, named by
// its field table (see schema.go); any other type panics. v is read without
// locking, so a shared Campaign goes through Campaign, which exposes one
// Snapshot of it.
func (e *TextExposer) Counters(v any) {
	s, ok := exposed[reflect.TypeOf(v)]
	if !ok {
		panic(fmt.Sprintf("telemetry: no counter table for %T", v))
	}
	s.expose(e, reflect.ValueOf(v).Elem())
}

// Campaign emits one consistent snapshot of a campaign aggregate: flow
// count, kernel, endpoint, link, channel and fault totals.
func (e *TextExposer) Campaign(c *Campaign) { e.Counters(c.Snapshot()) }

// Flush writes out buffered lines and returns the first error encountered.
func (e *TextExposer) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}
