package telemetry

import (
	"reflect"
	"sort"
	"strings"
)

// The counter schema. The struct fields of the telemetry sections are the
// only declaration of each counter: at init the types are read by
// reflection into flat field tables, and those tables drive merging, deep
// copies and the Prometheus exposition. Reflection runs only at merge, copy
// and scrape time, never per packet or per event.
//
// Field rules:
//   - an int64 sums on merge; a `merge:"max"` tag marks a gauge, which
//     takes the maximum;
//   - Dist and Hist fields merge through their own Merge;
//   - a nested struct is a subsection, an embedded struct is transparent;
//   - the one map, TCP.ByCC, merges per key and is exposed with the label
//     its `label:"…"` tag names, in sorted key order.
//
// Exposition names follow the JSON path: `<section>_<json key>`, joined by
// '_' through subsections, plus `_total` for summed fields and Hist totals;
// a Dist becomes a `_count`/`_sum`/`_min`/`_max` family. A `metric:"…"` tag
// replaces the part after the section where an older name differs.

// kind is how a field merges, copies and exposes.
type kind uint8

const (
	kindSum kind = iota
	kindMax
	kindDist
	kindHist
	kindByCC
)

// field is one leaf of a section's table.
type field struct {
	index []int
	kind  kind
	name  string // exposition name, without the exposer's prefix
	label string // kindByCC: the label carrying the map key
	sub   schema // kindByCC: the CCStats table
}

// schema is the flattened field table of one struct type.
type schema []field

var (
	distType = reflect.TypeOf(Dist{})
	histType = reflect.TypeOf(Hist{})
	byCCType = reflect.TypeOf(map[string]*CCStats(nil))

	// flowFields merges and copies flow bundles (and a campaign's embedded
	// Flow); campaignFields, which adds FlowCount, names the exposition.
	flowFields     = schemaOf(reflect.TypeOf(Flow{}), "campaign")
	campaignFields = schemaOf(reflect.TypeOf(Campaign{}), "campaign")

	// exposed maps the types TextExposer.Counters accepts to their tables.
	exposed = map[reflect.Type]schema{
		reflect.TypeOf(&Campaign{}): campaignFields,
		reflect.TypeOf(&Cache{}):    schemaOf(reflect.TypeOf(Cache{}), "cache"),
		reflect.TypeOf(&Fleet{}):    schemaOf(reflect.TypeOf(Fleet{}), "fleet"),
	}
)

// schemaOf builds t's table; section names the fields at its root.
func schemaOf(t reflect.Type, section string) schema {
	return build(t, nil, section, "")
}

// build walks t's exported fields. path is the JSON path below the section,
// joined by '_' ("" at the root, "net_data" inside Net.Data).
func build(t reflect.Type, index []int, section, path string) schema {
	var out schema
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		idx := append(append([]int(nil), index...), i)
		if sf.Anonymous {
			out = append(out, build(sf.Type, idx, section, path)...)
			continue
		}
		key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		prefix := path
		if prefix == "" {
			prefix = section
		}
		f := field{index: idx, name: prefix + "_" + key}
		switch {
		case sf.Type == distType:
			f.kind = kindDist
		case sf.Type == histType:
			f.kind, f.name = kindHist, f.name+"_total"
		case sf.Type == byCCType:
			f.label = sf.Tag.Get("label")
			f.kind, f.sub = kindByCC, build(byCCType.Elem().Elem(), nil, "", join(path, f.label))
		case sf.Type.Kind() == reflect.Struct:
			out = append(out, build(sf.Type, idx, section, join(path, key))...)
			continue
		case sf.Type.Kind() == reflect.Int64 && sf.Tag.Get("merge") == "max":
			f.kind = kindMax
		case sf.Type.Kind() == reflect.Int64:
			f.kind, f.name = kindSum, f.name+"_total"
		default:
			panic("telemetry: unsupported counter field " + t.Name() + "." + sf.Name)
		}
		if m := sf.Tag.Get("metric"); m != "" {
			f.name = prefix + "_" + m
		}
		out = append(out, f)
	}
	return out
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "_" + key
}

// elem returns the struct a pointer points to, as an addressable value.
func elem(p any) reflect.Value { return reflect.ValueOf(p).Elem() }

// merge folds src into dst, field by field.
func (s schema) merge(dst, src reflect.Value) {
	for i := range s {
		f := &s[i]
		d, v := dst.FieldByIndex(f.index), src.FieldByIndex(f.index)
		switch f.kind {
		case kindSum:
			d.SetInt(d.Int() + v.Int())
		case kindMax:
			if v.Int() > d.Int() {
				d.SetInt(v.Int())
			}
		case kindDist:
			d.Addr().Interface().(*Dist).Merge(v.Addr().Interface().(*Dist))
		case kindHist:
			d.Addr().Interface().(*Hist).Merge(v.Addr().Interface().(*Hist))
		case kindByCC:
			// Map order is irrelevant: every CCStats field merges by
			// integer addition, which commutes bitwise.
			m := d.Addr().Interface().(*map[string]*CCStats)
			for name, o := range v.Interface().(map[string]*CCStats) {
				if *m == nil {
					*m = make(map[string]*CCStats)
				}
				if cur := (*m)[name]; cur != nil {
					f.sub.merge(elem(cur), elem(o))
				} else {
					(*m)[name] = f.sub.clone(o)
				}
			}
		}
	}
}

// copy deep-copies src into dst. Histogram storage and the ByCC map are
// duplicated; a Dist is copied by value, which keeps a parsed summary.
func (s schema) copy(dst, src reflect.Value) {
	for i := range s {
		f := &s[i]
		d, v := dst.FieldByIndex(f.index), src.FieldByIndex(f.index)
		switch f.kind {
		case kindHist:
			h := v.Addr().Interface().(*Hist)
			*d.Addr().Interface().(*Hist) = Hist{
				Bounds: append([]float64(nil), h.Bounds...),
				Counts: append([]int64(nil), h.Counts...),
			}
		case kindByCC:
			var out map[string]*CCStats
			if m := v.Interface().(map[string]*CCStats); m != nil {
				out = make(map[string]*CCStats, len(m))
				for name, o := range m {
					out[name] = f.sub.clone(o)
				}
			}
			*d.Addr().Interface().(*map[string]*CCStats) = out
		default:
			d.Set(v)
		}
	}
}

// clone returns a deep copy of one per-variant slice.
func (s schema) clone(o *CCStats) *CCStats {
	c := new(CCStats)
	s.copy(elem(c), elem(o))
	return c
}

// expose writes every field of v, with labels appended to each line.
func (s schema) expose(e *TextExposer, v reflect.Value, labels ...string) {
	for i := range s {
		f := &s[i]
		fv := v.FieldByIndex(f.index)
		switch f.kind {
		case kindSum, kindMax:
			e.IntLabeled(f.name, fv.Int(), labels...)
		case kindDist:
			e.Dist(f.name, fv.Addr().Interface().(*Dist))
		case kindHist:
			e.IntLabeled(f.name, fv.Addr().Interface().(*Hist).Total(), labels...)
		case kindByCC:
			m := fv.Interface().(map[string]*CCStats)
			names := make([]string, 0, len(m))
			for name := range m {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				f.sub.expose(e, elem(m[name]), append(labels, f.label, name)...)
			}
		}
	}
}
