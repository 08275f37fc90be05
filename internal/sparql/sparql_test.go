package sparql

import (
	"strings"
	"testing"

	"specqp/internal/kg"
)

func TestParsePaperExample(t *testing.T) {
	d := kg.NewDict()
	src := `SELECT ?s WHERE{
		?s 'rdf:type' <singer>.
		?s 'rdf:type' <lyricist>.
		?s 'rdf:type' <guitarist>.
		?s 'rdf:type' <pianist>
	}`
	pq, err := Parse(src, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(pq.Query.Patterns) != 4 {
		t.Fatalf("patterns: got %d want 4", len(pq.Query.Patterns))
	}
	if len(pq.Projection) != 1 || pq.Projection[0] != "s" {
		t.Fatalf("projection: got %v", pq.Projection)
	}
	ty, ok := d.Lookup("rdf:type")
	if !ok {
		t.Fatal("rdf:type not interned")
	}
	for i, p := range pq.Query.Patterns {
		if !p.S.IsVar || p.S.Name != "s" {
			t.Fatalf("pattern %d subject: %+v", i, p.S)
		}
		if p.P.IsVar || p.P.ID != ty {
			t.Fatalf("pattern %d predicate: %+v", i, p.P)
		}
	}
	singer, _ := d.Lookup("singer")
	if pq.Query.Patterns[0].O.ID != singer {
		t.Fatal("first object is not singer")
	}
}

func TestParseMultiVariableAndStar(t *testing.T) {
	d := kg.NewDict()
	pq, err := Parse(`SELECT ?x ?y WHERE { ?x <knows> ?y . ?y <knows> ?z }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(pq.Projection) != 2 {
		t.Fatalf("projection: %v", pq.Projection)
	}
	star, err := Parse(`SELECT * WHERE { ?x <knows> ?y }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if star.Projection != nil {
		t.Fatalf("star projection must be empty, got %v", star.Projection)
	}
}

func TestParseTermForms(t *testing.T) {
	d := kg.NewDict()
	pq, err := Parse(`SELECT ?s WHERE { ?s "double quoted" bare:token . ?s <iri-term> 'single' }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(pq.Query.Patterns) != 2 {
		t.Fatalf("patterns: %d", len(pq.Query.Patterns))
	}
	for _, term := range []string{"double quoted", "bare:token", "iri-term", "single"} {
		if _, ok := d.Lookup(term); !ok {
			t.Errorf("term %q not interned", term)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	d := kg.NewDict()
	if _, err := Parse(`select ?s where { ?s <p> <o> }`, d); err != nil {
		t.Fatalf("lowercase keywords rejected: %v", err)
	}
}

func TestParseTrailingDotOptional(t *testing.T) {
	d := kg.NewDict()
	a, err := Parse(`SELECT ?s WHERE { ?s <p> <o> . }`, d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(`SELECT ?s WHERE { ?s <p> <o> }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Query.Patterns) != len(b.Query.Patterns) {
		t.Fatal("trailing dot changed the parse")
	}
}

func TestParseErrors(t *testing.T) {
	d := kg.NewDict()
	cases := []struct {
		name, src string
	}{
		{"missing select", `WHERE { ?s <p> <o> }`},
		{"missing where", `SELECT ?s { ?s <p> <o> }`},
		{"unterminated block", `SELECT ?s WHERE { ?s <p> <o>`},
		{"empty block", `SELECT ?s WHERE { }`},
		{"incomplete pattern", `SELECT ?s WHERE { ?s <p> }`},
		{"unknown projection", `SELECT ?zz WHERE { ?s <p> <o> }`},
		{"trailing garbage", `SELECT ?s WHERE { ?s <p> <o> } extra`},
		{"unterminated iri", `SELECT ?s WHERE { ?s <p <o> }`},
		{"unterminated literal", `SELECT ?s WHERE { ?s 'p <o> }`},
		{"empty var", `SELECT ? WHERE { ?s <p> <o> }`},
		{"brace in pattern", `SELECT ?s WHERE { ?s <p> { }`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src, d); err == nil {
			t.Errorf("%s: parse succeeded", c.name)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse(`garbage`, kg.NewDict())
}

func TestParseIntegratesWithStore(t *testing.T) {
	st := kg.NewStore(nil)
	if err := st.AddSPO("shakira", "rdf:type", "singer", 10); err != nil {
		t.Fatal(err)
	}
	if err := st.AddSPO("shakira", "rdf:type", "guitarist", 5); err != nil {
		t.Fatal(err)
	}
	st.Freeze()
	pq := MustParse(`SELECT ?s WHERE { ?s 'rdf:type' <singer> . ?s 'rdf:type' <guitarist> }`, st.Dict())
	answers := kg.Evaluate(st, pq.Query, nil)
	if len(answers) != 1 {
		t.Fatalf("answers: got %d want 1", len(answers))
	}
	if got := st.Dict().Decode(answers[0].Binding[0]); got != "shakira" {
		t.Fatalf("answer: %q", got)
	}
}

func TestParseWhitespaceRobust(t *testing.T) {
	d := kg.NewDict()
	src := "SELECT   ?s\n\tWHERE\n{\n?s\t<p>\n<o>\n}\n"
	if _, err := Parse(src, d); err != nil {
		t.Fatalf("whitespace variants rejected: %v", err)
	}
	if !strings.Contains(src, "\t") {
		t.Fatal("test setup lost tabs")
	}
}

func TestParseLimit(t *testing.T) {
	d := kg.NewDict()
	pq, err := Parse(`SELECT ?s WHERE { ?s <p> <o> } LIMIT 15`, d)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Limit != 15 {
		t.Fatalf("limit: got %d want 15", pq.Limit)
	}
	noLimit, err := Parse(`SELECT ?s WHERE { ?s <p> <o> }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if noLimit.Limit != 0 {
		t.Fatalf("absent limit: got %d want 0", noLimit.Limit)
	}
	for _, src := range []string{
		`SELECT ?s WHERE { ?s <p> <o> } LIMIT`,
		`SELECT ?s WHERE { ?s <p> <o> } LIMIT zero`,
		`SELECT ?s WHERE { ?s <p> <o> } LIMIT 0`,
		`SELECT ?s WHERE { ?s <p> <o> } LIMIT 5 extra`,
	} {
		if _, err := Parse(src, d); err == nil {
			t.Errorf("bad LIMIT accepted: %s", src)
		}
	}
	lc, err := Parse(`select ?s where { ?s <p> <o> } limit 3`, d)
	if err != nil || lc.Limit != 3 {
		t.Fatalf("lowercase limit: %v %d", err, lc.Limit)
	}
}
