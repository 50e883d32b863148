package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// fieldKeep lists the struct fields the module keeps although no
// production code reads them, each with its reason. A label is the
// package path below the module, the type and the field.
var fieldKeep = map[string]string{
	"internal/chaos.Oracle.Desc": "the one-line statement of the invariant that the root API's ChaosOracles hands a library user",
}

// TestEveryFieldHasAProductionReader is the field census, the
// reachability census's twin for state: every struct field the module
// declares must be read by production code (every non-test file,
// commands, examples and bench/ included) or be kept in fieldKeep. A
// use is a write when it is an assignment target (op= included, and a
// target reached through an index, a `*` or an enclosing field), an
// ++/-- operand, a composite-literal key, or the slice argument of an
// append whose result is assigned back to the same field; every other
// use is a read. encoding/json reads every field of a struct type
// reachable from the static type of a value production code marshals,
// and comparison reads every field of a struct type used as a map key
// or compared with == or !=. Embedded fields and fields declared under
// bench/ are not censused.
func TestEveryFieldHasAProductionReader(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	m := testModule(t)
	modPath := testLoader(t).ModulePath
	c := newFieldCensus()
	for _, pkg := range m.Packages {
		c.declare(pkg, modPath)
	}
	for _, pkg := range m.Packages {
		c.scan(pkg)
	}

	var unread []string
	for label, f := range c.labels {
		if _, keep := fieldKeep[label]; !keep && !c.read[f] {
			unread = append(unread, label)
		}
	}
	for label := range fieldKeep {
		f, ok := c.labels[label]
		switch {
		case !ok:
			t.Errorf("fieldKeep names %s, which the module does not declare", label)
		case c.read[f]:
			t.Errorf("fieldKeep names %s, which production code reads: drop the entry", label)
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d fields have no production reader (delete them with their writes, or keep one in fieldKeep with its reason):\n\t%s",
			len(unread), strings.Join(unread, "\n\t"))
	}
}

// fieldCensus records the module's censused fields and which of them
// production code reads. Fields are keyed by their declaration
// (types.Var.Origin), and every field of one anonymous struct type
// shares a label with the fields of identical anonymous types, since
// a value of one may flow through a variable of another.
type fieldCensus struct {
	// labels maps each censused field's label to its canonical field.
	labels map[string]*types.Var
	// canon maps a declared field to the field standing for its label.
	canon map[*types.Var]*types.Var
	read  map[*types.Var]bool
	// declared marks the struct types whose fields are recorded.
	declared map[*types.Struct]bool
	// seenJSON and seenEq guard the two type walks against cycles.
	seenJSON, seenEq map[types.Type]bool
}

func newFieldCensus() *fieldCensus {
	return &fieldCensus{
		labels:   make(map[string]*types.Var),
		canon:    make(map[*types.Var]*types.Var),
		read:     make(map[*types.Var]bool),
		declared: make(map[*types.Struct]bool),
		seenJSON: make(map[types.Type]bool),
		seenEq:   make(map[types.Type]bool),
	}
}

// declare records every non-embedded field of the struct types pkg
// declares, unless pkg lives under bench/.
func (c *fieldCensus) declare(pkg *Package, modPath string) {
	rel := strings.TrimPrefix(pkg.Path, modPath+"/")
	if rel == "bench" || strings.HasPrefix(rel, "bench/") {
		return
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var owner string
			var st *types.Struct
			switch n := n.(type) {
			case *ast.TypeSpec:
				if _, ok := n.Type.(*ast.StructType); !ok {
					return true
				}
				owner = n.Name.Name
				st, _ = pkg.Info.Defs[n.Name].Type().Underlying().(*types.Struct)
			case *ast.StructType:
				st, _ = pkg.Info.TypeOf(n).(*types.Struct)
				if st == nil || c.declared[st] {
					return true // declared by its TypeSpec already
				}
				owner = types.TypeString(st, types.RelativeTo(pkg.Types))
			default:
				return true
			}
			c.declared[st] = true
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Embedded() {
					continue
				}
				label := rel + "." + owner + "." + f.Name()
				if prev, ok := c.labels[label]; ok {
					c.canon[f] = prev
					continue
				}
				c.labels[label] = f
				c.canon[f] = f
			}
			return true
		})
	}
}

// markRead records a read of field f (a declared or instantiated
// field); fields outside the census are ignored.
func (c *fieldCensus) markRead(f *types.Var) {
	if k := c.canon[f.Origin()]; k != nil {
		c.read[k] = true
	}
}

// scan classifies every field use in pkg's files and applies the
// encoding/json and comparison rules to the types pkg uses.
func (c *fieldCensus) scan(pkg *Package) {
	writes := make(map[ast.Expr]bool)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					break
				}
				for i, lhs := range n.Lhs {
					markTarget(pkg.Info, lhs, writes)
					if len(n.Rhs) == len(n.Lhs) {
						markSelfAppend(pkg.Info, lhs, n.Rhs[i], writes)
					}
				}
			case *ast.IncDecStmt:
				markTarget(pkg.Info, n.X, writes)
			case *ast.SelectorExpr:
				if sel, ok := pkg.Info.Selections[n]; ok && sel.Kind() == types.FieldVal && !writes[n] {
					c.markRead(sel.Obj().(*types.Var))
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					c.readAllFields(pkg.Info.TypeOf(n.X))
				}
			case *ast.MapType:
				c.readAllFields(pkg.Info.TypeOf(n.Key))
			case *ast.CallExpr:
				if isJSONEncode(pkg.Info, n) {
					c.readJSON(pkg.Info.TypeOf(n.Args[0]))
				}
			}
			return true
		})
	}
}

// markTarget records the field selections an assignment target writes:
// the target itself and every field on its path through indexes, `*`
// and the selectors of fields held by value. A selector that reaches
// its field through a pointer reads that pointer, so the path stops
// there: Objects.stats, which points at the ObjStats a run reports, is
// read by a.stats.ObjLive[t]++.
func markTarget(info *types.Info, e ast.Expr, writes map[ast.Expr]bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel, ok := info.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return
			}
			writes[x] = true
			if sel.Indirect() {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// markSelfAppend records x.f = append(x.f, ...): the append reads x.f
// only to write it back, so a field that only grows is still unread.
func markSelfAppend(info *types.Info, lhs, rhs ast.Expr, writes map[ast.Expr]bool) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || info.Uses[id] != types.Universe.Lookup("append") {
		return
	}
	if arg, ok := call.Args[0].(*ast.SelectorExpr); ok && writes[lhs] && types.ExprString(arg) == types.ExprString(lhs) {
		writes[arg] = true
	}
}

// isJSONEncode reports whether call is json.Marshal, json.MarshalIndent
// or (*json.Encoder).Encode.
func isJSONEncode(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return false
	}
	switch fn.Name() {
	case "Marshal", "MarshalIndent", "Encode":
		return true
	}
	return false
}

// readJSON marks every field encoding/json can reach from t as read.
func (c *fieldCensus) readJSON(t types.Type) { c.walkFields(t, true, c.seenJSON) }

// readAllFields marks every field == compares in a value of type t.
func (c *fieldCensus) readAllFields(t types.Type) { c.walkFields(t, false, c.seenEq) }

// walkFields marks the fields of the struct types reachable from t.
// Comparison reaches only through arrays and struct fields; JSON also
// follows pointers, slices and maps.
func (c *fieldCensus) walkFields(t types.Type, json bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			c.markRead(u.Field(i))
			c.walkFields(u.Field(i).Type(), json, seen)
		}
	case *types.Array:
		c.walkFields(u.Elem(), json, seen)
	case *types.Pointer:
		if json {
			c.walkFields(u.Elem(), json, seen)
		}
	case *types.Slice:
		if json {
			c.walkFields(u.Elem(), json, seen)
		}
	case *types.Map:
		if json {
			c.walkFields(u.Key(), json, seen)
			c.walkFields(u.Elem(), json, seen)
		}
	}
}
