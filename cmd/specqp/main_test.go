package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden file from current output")

// cliArgs are the fixture invocation shared by the golden and sharding
// tests: -compare runs the paper's two engines over the committed music KG,
// and -timings=false keeps the output fully deterministic (answer order,
// memory-object counts and map-iteration-free rendering are all pinned).
func cliArgs(extra ...string) []string {
	args := []string{
		"-triples", filepath.Join("testdata", "music.triples.tsv"),
		"-rules", filepath.Join("testdata", "music.rules.tsv"),
		"-queries", filepath.Join("testdata", "music.queries.txt"),
		"-compare", "-k", "3", "-timings=false",
	}
	return append(args, extra...)
}

func runCLI(t *testing.T, args []string) string {
	t.Helper()
	var buf, errBuf bytes.Buffer
	if err := run(args, nil, &buf, &errBuf); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	if errBuf.Len() > 0 {
		t.Fatalf("run %v wrote errors: %s", args, errBuf.String())
	}
	return buf.String()
}

// TestGoldenCompare is the end-to-end golden test: -compare over the
// committed TSV fixture must reproduce the committed ranked answers and
// metrics headers byte-for-byte. Regenerate with `go test ./cmd/specqp
// -run TestGoldenCompare -update` after an intentional output change.
func TestGoldenCompare(t *testing.T) {
	got := runCLI(t, cliArgs())
	goldenPath := filepath.Join("testdata", "golden_compare.txt")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestIngestCLIMatchesPreloaded pins the -ingest flag end to end: loading
// half the fixture and live-inserting the rest (across head limits, with and
// without a final -compact, flat and sharded) must print exactly the ranked
// answers of preloading the whole fixture — only the load/ingest headers may
// differ.
func TestIngestCLIMatchesPreloaded(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "music.triples.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	if len(lines) < 4 {
		t.Fatalf("fixture has only %d triples", len(lines))
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "base.tsv")
	stream := filepath.Join(dir, "stream.tsv")
	half := len(lines) / 2
	if err := os.WriteFile(base, []byte(strings.Join(lines[:half], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stream, []byte(strings.Join(lines[half:], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Drop the load/ingest headers; everything below them must match.
	stripHeaders := func(out string) string {
		var kept []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "loaded ") || strings.HasPrefix(l, "ingested ") {
				continue
			}
			kept = append(kept, l)
		}
		return strings.Join(kept, "\n")
	}
	want := stripHeaders(runCLI(t, cliArgs()))
	ingestArgs := func(extra ...string) []string {
		args := []string{
			"-triples", base, "-ingest", stream,
			"-rules", filepath.Join("testdata", "music.rules.tsv"),
			"-queries", filepath.Join("testdata", "music.queries.txt"),
			"-compare", "-k", "3", "-timings=false",
		}
		return append(args, extra...)
	}
	for _, extra := range [][]string{
		{"-head", "2"},              // aggressive auto-compaction mid-stream
		{"-head", "-1"},             // everything stays in the head
		{"-head", "-1", "-compact"}, // head merged before querying
		{"-shards", "3", "-head", "2"},
	} {
		got := stripHeaders(runCLI(t, ingestArgs(extra...)))
		if got != want {
			t.Fatalf("%v diverged from preloaded run.\n--- got ---\n%s\n--- want ---\n%s", extra, got, want)
		}
	}
}

// TestShardedCLIMatchesFlat runs the same fixture through a sharded engine
// and requires byte-identical output: ranked answers, answer counts and
// memory objects — the CLI-level face of the bit-identical guarantee.
func TestShardedCLIMatchesFlat(t *testing.T) {
	flat := runCLI(t, cliArgs())
	for _, shards := range []string{"2", "5", "-1"} {
		sharded := runCLI(t, cliArgs("-shards", shards))
		if sharded != flat {
			t.Fatalf("-shards=%s changed the output.\n--- sharded ---\n%s\n--- flat ---\n%s", shards, sharded, flat)
		}
	}
}

// splitFixture writes the committed triples fixture into a preloaded base
// half and a streamed half under dir.
func splitFixture(t *testing.T, dir string) (base, stream string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "music.triples.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	base = filepath.Join(dir, "base.tsv")
	stream = filepath.Join(dir, "stream.tsv")
	half := len(lines) / 2
	if err := os.WriteFile(base, []byte(strings.Join(lines[:half], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stream, []byte(strings.Join(lines[half:], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return base, stream
}

// stripVarHeaders drops the load/ingest/delete/save/recovery headers; the
// metrics lines and ranked answers below must match byte-for-byte.
func stripVarHeaders(out string) string {
	var kept []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "loaded ") || strings.HasPrefix(l, "ingested ") ||
			strings.HasPrefix(l, "saved ") || strings.HasPrefix(l, "recovered ") ||
			strings.HasPrefix(l, "bootstrapped ") || strings.HasPrefix(l, "deleted ") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// TestSaveReloadCLIMatches pins -save end to end: ingest half the fixture
// live, save the combined store to a binary snapshot, reload the snapshot
// with -triples, and require the ranked answers of the preloaded run.
func TestSaveReloadCLIMatches(t *testing.T) {
	dir := t.TempDir()
	base, stream := splitFixture(t, dir)
	snap := filepath.Join(dir, "store.bin")
	want := stripVarHeaders(runCLI(t, cliArgs()))

	// Save with the heads still un-compacted: the snapshot must cover them.
	got := stripVarHeaders(runCLI(t, []string{
		"-triples", base, "-ingest", stream, "-head", "-1", "-save", snap,
		"-rules", filepath.Join("testdata", "music.rules.tsv"),
		"-queries", filepath.Join("testdata", "music.queries.txt"),
		"-compare", "-k", "3", "-timings=false",
	}))
	if got != want {
		t.Fatalf("ingest+save run diverged.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	reloaded := stripVarHeaders(runCLI(t, []string{
		"-triples", snap,
		"-rules", filepath.Join("testdata", "music.rules.tsv"),
		"-queries", filepath.Join("testdata", "music.queries.txt"),
		"-compare", "-k", "3", "-timings=false",
	}))
	if reloaded != want {
		t.Fatalf("snapshot reload diverged.\n--- got ---\n%s\n--- want ---\n%s", reloaded, want)
	}
}

// TestDeleteCLIRoundTrip pins retractions end to end: load the fixture, feed
// a mutation stream carrying `-` retraction lines and a latest-wins re-score,
// drop one more key with -delete, and require the ranked answers of a run
// preloaded with only the surviving facts. Then save the mutated store and
// reload the snapshot — retracted facts must stay gone across persistence.
//
// The survivors file is built by editing the fixture in place (re-scored line
// stays at its original position, retracted lines removed) so both runs
// intern every term in the same order; ranked-answer tie-breaks therefore
// compare byte-for-byte.
func TestDeleteCLIRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "music.triples.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	var survivors []string
	for _, l := range lines {
		f := strings.Split(l, "\t")
		switch {
		case f[0] == "prince" && f[1] == "rdf:type" && f[2] == "guitarist":
			continue // retracted by the stream
		case f[0] == "miley" && f[1] == "collab" && f[2] == "shakira":
			continue // retracted by -delete
		case f[0] == "beyonce" && f[1] == "rdf:type" && f[2] == "singer":
			survivors = append(survivors, "beyonce\trdf:type\tsinger\t70") // re-scored in place
		default:
			survivors = append(survivors, l)
		}
	}
	dir := t.TempDir()
	survivorsPath := filepath.Join(dir, "survivors.tsv")
	if err := os.WriteFile(survivorsPath, []byte(strings.Join(survivors, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stream := filepath.Join(dir, "mutations.tsv")
	mutations := "-\tprince\trdf:type\tguitarist\n" +
		"-\tbeyonce\trdf:type\tsinger\n" +
		"beyonce\trdf:type\tsinger\t70\n"
	if err := os.WriteFile(stream, []byte(mutations), 0o644); err != nil {
		t.Fatal(err)
	}
	common := []string{
		"-rules", filepath.Join("testdata", "music.rules.tsv"),
		"-queries", filepath.Join("testdata", "music.queries.txt"),
		"-compare", "-k", "3", "-timings=false",
	}
	want := stripVarHeaders(runCLI(t, append([]string{"-triples", survivorsPath}, common...)))
	if full := stripVarHeaders(runCLI(t, append([]string{"-triples", filepath.Join("testdata", "music.triples.tsv")}, common...))); full == want {
		t.Fatal("fixture and survivors runs agree — the retracted keys are invisible to the queries, test proves nothing")
	}
	snap := filepath.Join(dir, "mutated.bin")
	mutArgs := func(extra ...string) []string {
		args := append([]string{
			"-triples", filepath.Join("testdata", "music.triples.tsv"),
			"-ingest", stream, "-delete", "miley collab shakira",
		}, extra...)
		return append(args, common...)
	}
	for _, extra := range [][]string{
		{},
		{"-compact"},
		{"-shards", "3"},
		{"-shards", "3", "-compact"},
		{"-head", "2", "-l1", "4"},
		{"-save", snap},
	} {
		got := stripVarHeaders(runCLI(t, mutArgs(extra...)))
		if got != want {
			t.Fatalf("%v diverged from survivors-only run.\n--- got ---\n%s\n--- want ---\n%s", extra, got, want)
		}
	}
	reloaded := stripVarHeaders(runCLI(t, append([]string{"-triples", snap}, common...)))
	if reloaded != want {
		t.Fatalf("snapshot of mutated store resurrected retracted facts.\n--- got ---\n%s\n--- want ---\n%s", reloaded, want)
	}
}

// TestWALCLIRecovery pins -wal end to end: bootstrap a durable session from
// the base fixture, ingest the stream (every insert WAL-logged), exit; a
// second session recovers from the directory alone and must print exactly
// the preloaded run's ranked answers. A third session with -triples against
// the populated directory must be refused.
func TestWALCLIRecovery(t *testing.T) {
	dir := t.TempDir()
	base, stream := splitFixture(t, dir)
	walDir := filepath.Join(dir, "wal")
	want := stripVarHeaders(runCLI(t, cliArgs()))

	common := []string{
		"-rules", filepath.Join("testdata", "music.rules.tsv"),
		"-queries", filepath.Join("testdata", "music.queries.txt"),
		"-compare", "-k", "3", "-timings=false",
	}
	got := stripVarHeaders(runCLI(t, append([]string{
		"-triples", base, "-ingest", stream, "-wal", walDir, "-wal-sync", "always",
	}, common...)))
	if got != want {
		t.Fatalf("durable ingest run diverged.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	for _, shards := range []string{"1", "3"} {
		recovered := stripVarHeaders(runCLI(t, append([]string{
			"-wal", walDir, "-shards", shards,
		}, common...)))
		if recovered != want {
			t.Fatalf("-shards=%s recovery diverged.\n--- got ---\n%s\n--- want ---\n%s", shards, recovered, want)
		}
	}
	var buf, errBuf bytes.Buffer
	err := run(append([]string{"-triples", base, "-wal", walDir}, common...), nil, &buf, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "durable state") {
		t.Fatalf("bootstrapping over existing durable state: err=%v", err)
	}
}
