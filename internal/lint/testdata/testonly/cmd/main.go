// A main package: its references reach the fixture's declarations.
package main

import "allpairs/internal/fixture"

func main() {
	t := fixture.NewThing()
	println(t.Get(), fixture.Used(), fixture.Measure(fixture.Wrapper{}))
}
