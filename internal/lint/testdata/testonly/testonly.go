// Fixture for the testonly analyzer, type-checked under the synthetic import
// path allpairs/internal/fixture; cmd/ is a main package that imports it.
package fixture

import "fmt"

// Used is referenced only from the main package.
func Used() int { return helper() }

func helper() int { return 1 }

func TestOnly() int { return OnlyFromTestOnly() } // want `TestOnly is reached only from tests`

func OnlyFromTestOnly() int { return 2 } // want `OnlyFromTestOnly is reached only from tests`

type Unused struct{} // want `Unused is reached only from tests`

type Thing struct{ n int }

func NewThing() *Thing { return &Thing{} }

func (t *Thing) Get() int { return t.n }

func (t *Thing) Peek() int { return t.n } // want `Thing\.Peek is reached only from tests`

func (t *Thing) String() string { return fmt.Sprint(t.n) }

// Sizer is satisfied by Wrapper only through its embedded inner.
type Sizer interface{ Size() int }

type inner struct{}

func (inner) Size() int { return 0 }

type Wrapper struct{ inner }

func Measure(s Sizer) int { return s.Size() }

//lint:testonly TestNeighbour in another package calls it
func Waived() int { return 3 }

//lint:testonly
func Unreasoned() int { return 4 } // want `//lint:testonly requires a reason`
