// Command specqp-datagen generates the synthetic evaluation datasets (the
// XKG-style and Twitter-style substitutes described in package datagen) and
// writes them to disk as three files per dataset:
//
//	<out>/<name>.triples.tsv   — subject\tpredicate\tobject\tscore
//	<out>/<name>.rules.tsv     — fromS..fromO toS..toO weight
//	<out>/<name>.queries.txt   — one SPARQL query per line
//
// The files round-trip through the specqp CLI (cmd/specqp).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"specqp/internal/datagen"
	"specqp/internal/sparql"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specqp-datagen: ")

	var (
		dataset = flag.String("dataset", "both", "dataset to generate: xkg, twitter or both")
		out     = flag.String("out", "data", "output directory")
		seed    = flag.Int64("seed", 1, "random seed")
		scale   = flag.Float64("scale", 1.0, "size multiplier for entities/tweets")
		binary  = flag.Bool("binary", false, "also write a binary store snapshot (.triples.bin) for fast loading")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	writeBinary = *binary
	if *dataset == "xkg" || *dataset == "both" {
		cfg := datagen.XKGConfig{Seed: *seed}
		cfg.Entities = int(20000 * *scale)
		ds, err := datagen.XKG(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeDataset(*out, ds); err != nil {
			log.Fatal(err)
		}
	}
	if *dataset == "twitter" || *dataset == "both" {
		cfg := datagen.TwitterConfig{Seed: *seed}
		cfg.Tweets = int(15000 * *scale)
		ds, err := datagen.Twitter(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeDataset(*out, ds); err != nil {
			log.Fatal(err)
		}
	}
}

var writeBinary bool

func writeDataset(dir string, ds *datagen.Dataset) error {
	triplesPath := filepath.Join(dir, ds.Name+".triples.tsv")
	f, err := os.Create(triplesPath)
	if err != nil {
		return err
	}
	if err := ds.Store.WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if writeBinary {
		bf, err := os.Create(filepath.Join(dir, ds.Name+".triples.bin"))
		if err != nil {
			return err
		}
		if err := ds.Store.WriteBinary(bf); err != nil {
			bf.Close()
			return err
		}
		if err := bf.Close(); err != nil {
			return err
		}
	}

	rulesPath := filepath.Join(dir, ds.Name+".rules.tsv")
	f, err = os.Create(rulesPath)
	if err != nil {
		return err
	}
	if err := ds.Rules.WriteTSV(f, ds.Store.Dict()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	queriesPath := filepath.Join(dir, ds.Name+".queries.txt")
	f, err = os.Create(queriesPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, qs := range ds.Queries {
		fmt.Fprintf(w, "# %s\n%s\n", qs.Name, sparql.Render(qs.Query, ds.Store.Dict()))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fmt.Printf("%s: %d triples, %d rules, %d queries → %s{.triples.tsv,.rules.tsv,.queries.txt}\n",
		ds.Name, ds.Store.Len(), ds.Rules.Len(), len(ds.Queries), filepath.Join(dir, ds.Name))
	return nil
}
