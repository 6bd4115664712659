// Command lint is the repo's determinism and concurrency multichecker. It
// runs the custom passes from internal/lint (mapiter, wallclock, allocfree,
// testonly) over the packages named on the command line (default ./...) and
// exits nonzero on any finding. testonly reads references from the whole
// module whatever the patterns; a declaration another package's tests need
// is waived with //lint:testonly <reason>. `make lint` and the CI lint job
// gate every change on a clean run.
package main

import (
	"flag"
	"fmt"
	"os"

	"allpairs/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lint [packages]\n\nanalyzers:\n\n")
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Fprintf(os.Stderr, "  %s: %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(lint.Main(".", flag.Args()))
}
