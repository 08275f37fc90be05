package kg

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteTSV serialises the store's triples as tab-separated
// "subject\tpredicate\tobject\tscore" lines.
func (st *Store) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range st.allTriples() {
		_, err := fmt.Fprintf(bw, "%s\t%s\t%s\t%s\n",
			st.dict.Decode(t.S), st.dict.Decode(t.P), st.dict.Decode(t.O),
			strconv.FormatFloat(t.score(), 'g', -1, 64))
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ForEachTSVTriple walks tab-separated "subject\tpredicate\tobject\tscore"
// lines, calling fn per triple. Blank lines and lines starting with '#' are
// skipped. It is the single parser behind ReadTSV and the CLI's live-ingest
// path, so the two cannot drift on format details. Retraction lines (see
// ForEachTSVMutation) are an error here — a load path that cannot apply
// deletes must not silently drop them.
func ForEachTSVTriple(r io.Reader, fn func(s, p, o string, score float64) error) error {
	return ForEachTSVMutation(r, fn, nil)
}

// ForEachTSVMutation walks a TSV mutation stream: insert lines are the usual
// "subject\tpredicate\tobject\tscore", retraction lines put "-" in the first
// field — "-\tsubject\tpredicate\tobject" — and retract every live copy of
// the key. Blank lines and '#' comments are skipped. A nil del rejects
// retraction lines with an error.
func ForEachTSVMutation(r io.Reader, ins func(s, p, o string, score float64) error, del func(s, p, o string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 4 {
			return fmt.Errorf("kg: line %d: want 4 tab-separated fields, got %d", lineNo, len(fields))
		}
		if fields[0] == "-" {
			if del == nil {
				return fmt.Errorf("kg: line %d: retraction line in an insert-only stream", lineNo)
			}
			if err := del(fields[1], fields[2], fields[3]); err != nil {
				return fmt.Errorf("kg: line %d: %v", lineNo, err)
			}
			continue
		}
		score, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return fmt.Errorf("kg: line %d: bad score %q: %v", lineNo, fields[3], err)
		}
		if err := ins(fields[0], fields[1], fields[2], score); err != nil {
			return fmt.Errorf("kg: line %d: %v", lineNo, err)
		}
	}
	return sc.Err()
}

// ReadTSV loads triples from tab-separated lines into a fresh store and
// freezes it. Blank lines and lines starting with '#' are skipped.
func ReadTSV(r io.Reader) (*Store, error) {
	st := NewStore(nil)
	if err := ForEachTSVTriple(r, st.AddSPO); err != nil {
		return nil, err
	}
	st.Freeze()
	return st, nil
}
