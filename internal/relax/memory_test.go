package relax

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"specqp/internal/kg"
)

// TestReadTSVIntoKeepsNoInputLine pins that parsed rules keep no reference
// into their input: variable names are interned, not sliced out of the
// scanned line, so a rule set read from long lines does not hold the lines.
func TestReadTSVIntoKeepsNoInputLine(t *testing.T) {
	const lines = 2000
	const pad = 2048 // a long weight field: "0.5" and 2 KiB of zeros
	var src bytes.Buffer
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&src, "?s\ttype\tc%d\t?s\ttype\tc%d\t0.5%s\n", i, i+1, strings.Repeat("0", pad))
	}
	input := src.Bytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := kg.NewDict()
	rs, err := ReadTSV(bytes.NewReader(input), d)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(input)
	if rs.Len() != lines {
		t.Fatalf("read %d rules", rs.Len())
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > lines*pad/4 {
		t.Fatalf("reading %d rules left %d live bytes: the input lines are retained", lines, grown)
	}
	// Every ?s, domain and target, is one interned copy.
	tp, _ := d.Lookup("type")
	data := map[*byte]bool{}
	for i := 0; i < lines; i++ {
		c, _ := d.Lookup(fmt.Sprintf("c%d", i))
		r, ok := rs.Top(kg.NewPattern(kg.Var("x"), kg.Const(tp), kg.Const(c)))
		if !ok {
			t.Fatalf("no rule for c%d", i)
		}
		data[unsafe.StringData(r.From.S.Name)] = true
		data[unsafe.StringData(r.To.S.Name)] = true
	}
	if len(data) != 1 {
		t.Fatalf("?s is held in %d copies, want one interned copy", len(data))
	}
}

// TestRuleSetBytesPerRule bounds the rule set's live heap per stored rule.
// Measured here (five rules per domain), a map of weight-sorted []Rule
// slices held 425 B per rule; an 88-byte Entry plus each domain's key and
// offset hold 92 B. The bound leaves 18 B of slack over that.
func TestRuleSetBytesPerRule(t *testing.T) {
	const n = 50_000
	const perDomain = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rs := NewRuleSet()
	for i := 0; i < n; i++ {
		dom := kg.ID(i / perDomain)
		r := Rule{
			From:   kg.NewPattern(kg.Var("s"), kg.Const(1<<30), kg.Const(dom)),
			To:     kg.NewPattern(kg.Var("s"), kg.Const(1<<30), kg.Const(dom+1+kg.ID(i%perDomain))),
			Weight: 1 / float64(1+i%perDomain),
		}
		if err := rs.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if rs.Len() != n {
		t.Fatalf("stored %d rules", rs.Len())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rs)
	perRule := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("rule set: %.1f live bytes per rule", perRule)
	if perRule > 110 {
		t.Fatalf("rule set holds %.1f B per rule; want ≤ 110", perRule)
	}
}

// TestNoMapInDictOrRuleSet: the term dictionary and the rule set are flat
// slices; a Go map anywhere in their fields would bring back the per-entry
// overhead the memory guards above bound.
func TestNoMapInDictOrRuleSet(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var holdsMap func(reflect.Type) bool
	holdsMap = func(t reflect.Type) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Map:
			return true
		case reflect.Pointer, reflect.Slice, reflect.Array:
			return holdsMap(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if holdsMap(t.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[kg.Dict](), reflect.TypeFor[RuleSet]()} {
		if holdsMap(typ) {
			t.Errorf("%v holds a Go map", typ)
		}
	}
	if got := unsafe.Sizeof(Entry{}); got != 88 {
		t.Errorf("Entry is %d bytes, want 88", got)
	}
}
