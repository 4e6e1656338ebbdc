// Package deadexp is the deadexport-check fixture: exported functions and
// methods that only tests would call are findings; callers in another
// package, in a callers-only load, or through an interface are not.
package deadexp

import "fmt"

// Used is called from package user.
func Used() {}

// BenchOnly is called only from package bench, loaded as a caller.
func BenchOnly() {}

func Dead() {} // want "deadexp.Dead is exported but no non-test file calls it"

// Recursive calls itself, which is no caller.
func Recursive(n int) int { // want "deadexp.Recursive is exported"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// InPackage is called by an unexported function of its own package.
func InPackage() {}

func helper() { InPackage() }

// Harness is kept for tests on purpose.
//
//lint:testonly a fixture harness the tests share
func Harness() {}

// Runner is an interface whose method T satisfies.
type Runner interface{ Run() }

// T has methods reached only through interfaces, and one dead one.
type T struct{}

// Run satisfies Runner.
func (*T) Run() {}

// String satisfies fmt.Stringer.
func (T) String() string { return fmt.Sprint("t") }

func (T) Dead() {} // want "\(radionet/internal/lint/testdata/src/deadexp.T\).Dead is exported"

// Box is generic; user calls Get on an instance.
type Box[E any] struct{ v E }

// Get is called on Box[int].
func (b Box[E]) Get() E { return b.v }

// Put is never called.
func (b *Box[E]) Put(v E) { b.v = v } // want "Box\[E\]\).Put is exported"

func unexported() {}
