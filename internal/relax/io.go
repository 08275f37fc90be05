package relax

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"specqp/internal/kg"
)

// WriteTSV serialises the rule set as tab-separated lines
//
//	fromS fromP fromO toS toP toO weight
//
// where variables render as "?name" and constants as their dictionary
// strings. Rules are emitted in a deterministic order.
func (rs *RuleSet) WriteTSV(w io.Writer, dict *kg.Dict) error {
	term := func(t kg.Term) string {
		if t.IsVar {
			return "?" + t.Name
		}
		return dict.Decode(t.ID)
	}
	rs.ready()
	var lines []string
	for i, k := range rs.keys {
		for _, e := range rs.entries[rs.offs[i]:rs.offs[i+1]] {
			if e.IsChain() {
				// Chain rules have no single target pattern; the TSV format
				// covers only plain rules. Skipping keeps round-trips of
				// miner-produced rule sets lossless (miners emit no chains).
				continue
			}
			from := domain(k, rs.vars[e.vars])
			lines = append(lines, fmt.Sprintf("%s\t%s\t%s\t%s\t%s\t%s\t%s",
				term(from.S), term(from.P), term(from.O),
				term(e.To.S), term(e.To.P), term(e.To.O),
				strconv.FormatFloat(e.Weight, 'g', -1, 64)))
		}
	}
	sort.Strings(lines)
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		if _, err := fmt.Fprintln(bw, l); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses rules written by WriteTSV, interning constants into dict.
// Blank lines and '#' comments are skipped.
func ReadTSV(r io.Reader, dict *kg.Dict) (*RuleSet, error) {
	rs := NewRuleSet()
	if err := ReadTSVInto(rs, r, dict); err != nil {
		return nil, err
	}
	return rs, nil
}

// ReadTSVInto parses rules into an existing rule set — the path for engines
// whose rule set must exist before the rules file can be read (a durable
// engine recovers its dictionary from the WAL directory first, then loads
// rules against it). Neither the rules nor the dictionary keep a reference
// into the input text: constants are copied on interning and variable names
// when the rules are sorted in, which happens before ReadTSVInto returns.
func ReadTSVInto(rs *RuleSet, r io.Reader, dict *kg.Dict) error {
	term := func(s string) kg.Term {
		if strings.HasPrefix(s, "?") {
			return kg.Var(s)
		}
		return kg.Const(dict.Encode(s))
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 7 {
			return fmt.Errorf("relax: line %d: want 7 fields, got %d", lineNo, len(f))
		}
		w, err := strconv.ParseFloat(f[6], 64)
		if err != nil {
			return fmt.Errorf("relax: line %d: bad weight %q: %v", lineNo, f[6], err)
		}
		rule := Rule{
			From:   kg.NewPattern(term(f[0]), term(f[1]), term(f[2])),
			To:     kg.NewPattern(term(f[3]), term(f[4]), term(f[5])),
			Weight: w,
		}
		if err := rs.Add(rule); err != nil {
			return fmt.Errorf("relax: line %d: %v", lineNo, err)
		}
	}
	rs.ready()
	return sc.Err()
}
