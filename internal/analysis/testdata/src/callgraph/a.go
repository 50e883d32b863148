// Package fixture exercises the call graph's resolution strategies:
// static calls, interface dispatch, method values, function-typed
// fields, methods of instantiated generic types, explicit
// instantiations and calls in package initializers. The go tool never
// builds testdata trees.
package fixture

// Closer is the dispatch interface.
type Closer interface{ Close() int }

type fileObj struct{ n int }

func (f *fileObj) Close() int { return f.n }

type sockObj struct{}

func (sockObj) Close() int { return 0 }

// CloseAll dispatches through the interface: class-hierarchy analysis
// resolves both implementations as callees.
func CloseAll(cs []Closer) int {
	total := 0
	for _, c := range cs {
		total += c.Close()
	}
	return total
}

// hooks is the function-typed-field shape (RunConfig-style).
type hooks struct {
	onEvent func() int
}

// Fire calls through the field: dynamic, no callees.
func Fire(h *hooks) int { return h.onEvent() }

// helper is only reachable through the references TakeRefs takes.
func helper() int { return 1 }

// TakeRefs takes a method value and a function value without calling
// either: both targets become Refs of this function.
func TakeRefs(f *fileObj) (func() int, func() int) {
	mv := f.Close
	return mv, helper
}

// Direct is a plain static call.
func Direct() int { return helper() }

// box is generic: a call to Get on box[int] names an instantiated
// method, which resolves to the one declaration.
type box[T any] struct{ v T }

func (b *box[T]) Get() T { return b.v }

// Unbox calls a method of an instantiated generic type.
func Unbox(b *box[int]) int { return b.Get() }

// first and pick are generic functions that Instantiate calls through
// explicit instantiations of one and of two type arguments; both calls
// resolve to the generic declarations.
func first[T any](xs []T) T { return xs[0] }

func pick[K comparable, V any](k K, v V) V { return v }

// Instantiate makes the two instantiated calls.
func Instantiate() int { return first[int]([]int{1}) + pick[string, int]("a", 2) }

// initial is called only from a package-level initializer, which
// runs when the package loads.
func initial() int { return 7 }

var loaded = []int{initial()}
