// Command xcluster builds XCluster synopses of XML documents, persists
// them, and estimates twig-query selectivities over them.
//
// Usage:
//
//	xcluster stats    doc.xml
//	xcluster build    -bstr 10240 -bval 51200 [-o syn.bin] doc.xml
//	xcluster estimate -q '//paper[year>2000]/title' doc.xml
//	xcluster estimate -q '//paper[year>2000]/title' -syn syn.bin [doc.xml]
//
// estimate prints the synopsis estimate; when the document is also given
// it prints the exact selectivity and the relative error.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"xcluster"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  xcluster stats    <doc.xml>
  xcluster build    [-bstr N] [-bval N] [-o syn.bin] <doc.xml>
  xcluster estimate -q <query> [-bstr N] [-bval N] [-syn syn.bin] [<doc.xml>]
  xcluster explain  -q <query> [-bstr N] [-bval N] [-syn syn.bin] [<doc.xml>]
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	bstr := fs.Int("bstr", 10<<10, "structural budget in bytes")
	bval := fs.Int("bval", 50<<10, "value-summary budget in bytes")
	qstr := fs.String("q", "", "twig query (estimate only)")
	out := fs.String("o", "", "write the synopsis to this file (build only)")
	dot := fs.String("dot", "", "write a Graphviz rendering of the synopsis to this file (build only)")
	synPath := fs.String("syn", "", "load a serialized synopsis instead of building one (estimate only)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		usage()
	}

	loadDoc := func(path string) *xcluster.Tree {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tree, err := xcluster.ParseXML(f)
		if err != nil {
			fatal(err)
		}
		return tree
	}

	switch cmd {
	case "stats":
		if fs.NArg() != 1 {
			usage()
		}
		tree := loadDoc(fs.Arg(0))
		st := tree.ComputeStats()
		fmt.Printf("elements:    %d\n", st.Elements)
		fmt.Printf("value nodes: %d\n", st.ValueNodes)
		fmt.Printf("tags:        %d\n", st.Labels)
		fmt.Printf("max depth:   %d\n", st.MaxDepth)
		fmt.Printf("terms:       %d\n", st.Terms)
		ref, err := xcluster.BuildReference(tree)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("reference synopsis: %s\n", xcluster.SynopsisStats(ref))

	case "build":
		if fs.NArg() != 1 {
			usage()
		}
		tree := loadDoc(fs.Arg(0))
		syn, err := xcluster.Build(tree, xcluster.WithStructBudget(*bstr), xcluster.WithValueBudget(*bval))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("synopsis: %s\n", xcluster.SynopsisStats(syn))
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			if err := xcluster.WriteSynopsis(f, syn); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fi, _ := os.Stat(*out)
			fmt.Printf("wrote %s (%d bytes)\n", *out, fi.Size())
		}
		if *dot != "" {
			f, err := os.Create(*dot)
			if err != nil {
				fatal(err)
			}
			if err := xcluster.WriteDOT(f, syn); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *dot)
		}

	case "estimate", "explain":
		if *qstr == "" {
			usage()
		}
		q, err := xcluster.ParseQuery(*qstr)
		if err != nil {
			fatal(err)
		}
		var syn *xcluster.Synopsis
		var tree *xcluster.Tree
		switch {
		case *synPath != "":
			f, err := os.Open(*synPath)
			if err != nil {
				fatal(err)
			}
			syn, err = xcluster.ReadSynopsis(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			if fs.NArg() == 1 {
				tree = loadDoc(fs.Arg(0))
			}
		case fs.NArg() == 1:
			tree = loadDoc(fs.Arg(0))
			syn, err = xcluster.Build(tree, xcluster.WithStructBudget(*bstr), xcluster.WithValueBudget(*bval))
			if err != nil {
				fatal(err)
			}
		default:
			usage()
		}
		estimator := xcluster.NewEstimator(syn)
		est := estimator.Selectivity(q)
		fmt.Printf("query:    %s\n", *qstr)
		fmt.Printf("synopsis: %s\n", xcluster.SynopsisStats(syn))
		fmt.Printf("estimate: %.2f\n", est)
		if tree != nil {
			exact := xcluster.ExactSelectivity(tree, q)
			fmt.Printf("exact:    %.0f\n", exact)
			if exact > 0 {
				fmt.Printf("rel.err:  %.1f%%\n", 100*math.Abs(exact-est)/exact)
			}
		}
		if cmd == "explain" {
			fmt.Println("top embeddings (query variables -> synopsis clusters):")
			for _, em := range estimator.Explain(q, 10) {
				fmt.Printf("  %s\n", syn.FormatEmbedding(em))
			}
		}

	default:
		usage()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xcluster: %v\n", err)
	os.Exit(1)
}
