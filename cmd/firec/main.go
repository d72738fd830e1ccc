// Command firec compiles a mini-C source file and reports what the
// FIRestarter pipeline would do with it: the library-call site analysis
// (gates / embedded / breaks) and, with -instrument, the transformed IR.
//
// Usage:
//
//	firec [-dump] [-instrument] [-sites] file.c
//	firec -app nginx -sites        # analyze a built-in server instead
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/firestarter-go/firestarter/internal/analysis"
	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/minic"
	"github.com/firestarter-go/firestarter/internal/transform"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		dump       = flag.Bool("dump", false, "print the compiled IR")
		instrument = flag.Bool("instrument", false, "apply the FIRestarter passes and print the instrumented IR")
		sites      = flag.Bool("sites", true, "print the library-call site analysis")
		appName    = flag.String("app", "", "analyze a built-in server (nginx, apache, lighttpd, redis, postgres) instead of a file")
	)
	flag.Parse()

	var prog *ir.Program
	var err error
	switch {
	case *appName != "":
		app := apps.ByName(*appName)
		if app == nil {
			fmt.Fprintf(os.Stderr, "firec: unknown app %q\n", *appName)
			return 2
		}
		prog, err = app.Compile()
	case flag.NArg() == 1:
		src, rerr := os.ReadFile(flag.Arg(0))
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "firec: %v\n", rerr)
			return 1
		}
		prog, err = minic.Compile(string(src), minic.Config{KnownLib: libsim.Known})
	default:
		fmt.Fprintln(os.Stderr, "usage: firec [-dump] [-instrument] [-sites] file.c | -app name")
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "firec: %v\n", err)
		return 1
	}

	if *sites {
		res := analysis.Classify(prog, libmodel.Default())
		gates, embeds, breaks := res.Counts()
		fmt.Printf("library call sites: %d total — %d gates, %d embedded, %d breaks\n",
			len(res.Sites), gates, embeds, breaks)
		for _, s := range res.Sites {
			fmt.Printf("  site %3d  %-14s %-6s checked=%-5v at %s.b%d\n",
				s.ID, s.Name, s.Role, s.Checked, s.Func, s.Block)
		}
	}
	if *dump {
		fmt.Println(prog.Dump())
	}
	if *instrument {
		tr, terr := transform.Apply(prog, nil)
		if terr != nil {
			fmt.Fprintf(os.Stderr, "firec: instrument: %v\n", terr)
			return 1
		}
		gates, _, _ := tr.Analysis.Counts()
		fmt.Printf("instrumented: %d -> %d instructions (%d gates)\n",
			prog.InstrCount(), tr.Prog.InstrCount(), gates)
		fmt.Println(tr.Prog.Dump())
	}
	return 0
}
