// Package testonlygood references every exported function from loaded
// code — by call, method value, package-level alias, interface
// dispatch, or generic instantiation; testonly must stay silent.
package testonlygood

import "fmt"

// Shape is a module interface; calling Area through it reaches every
// implementation.
type Shape interface{ Area() int }

// Square implements Shape.
type Square struct{ Side int }

// Area is reached only through Shape.
func (s Square) Area() int { return s.Side * s.Side }

// String is exempt: fmt calls it on any value handed to it.
func (s Square) String() string { return fmt.Sprint(s.Side) }

// Total calls Area through the interface.
func Total(shapes []Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// Counter's Inc is referenced as a method value.
type Counter struct{ n int }

// Inc is taken as a method value below.
func (c *Counter) Inc() { c.n++ }

// Helper is referenced by a package-level alias.
func Helper() int { return 3 }

// Alias names Helper without calling it.
var Alias = Helper

// Max is generic; an instantiated call references its origin.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Run is the entry point that references everything above.
func Run() int {
	var c Counter
	inc := c.Inc
	inc()
	return Total([]Shape{Square{Side: 2}}) + Alias() + Max(c.n, 1)
}

func init() { _ = Run() }
