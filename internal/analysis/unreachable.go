package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Unreachable enforces "nothing shipped that no live path reaches" (DESIGN
// §12): it reports each package-level func, method, type, var and const in
// a non-test file that no main, init or package-level var initializer in
// the module reaches — reachability, not reference counts, so dead cycles
// are flagged. A method is also live when its receiver type is live and
// implements an interface declaring it. _test.go references never count.
// Drivers must collect over the whole module.
var Unreachable = &Analyzer{
	Name:    "unreachable",
	Doc:     "every package-level declaration must be reachable from a main or init in the module",
	Collect: collectReach,
	Run:     runUnreachable,
}

// reachGraph is the module-wide reference graph behind Unreachable. Methods
// match interfaces by name and arity, so generic constraints match too.
type reachGraph struct {
	edges   map[string][]string          // decl key -> keys it references
	roots   []string                     // keys referenced by main, init and var initializers
	methods map[string]map[string]string // type key -> methodSig -> method key, over *T's method set
	ifaces  map[string][]string          // joined sigs -> one interface's method sigs
	seen    map[string]bool              // imported package paths whose interfaces are recorded
	live    map[string]bool              // closure of roots, computed by the first Run
}

func newReachGraph() *reachGraph {
	return &reachGraph{
		edges:   map[string][]string{},
		methods: map[string]map[string]string{},
		ifaces:  map[string][]string{"Error/0/1": {"Error/0/1"}}, // the universe's error
		seen:    map[string]bool{},
	}
}

// objKey is obj's identity across units: "pkg.Name" for a package-level
// object, "pkg.Type.Method" for a method, "" for anything else.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		t := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + n.Origin().Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func methodSig(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	return fmt.Sprintf("%s/%d/%d", m.Name(), sig.Params().Len(), sig.Results().Len())
}

// addIface records t's method set if t is an interface; empty ones (any,
// type-set constraints) keep nothing alive.
func (g *reachGraph) addIface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	sigs := make([]string, it.NumMethods())
	for i := range sigs {
		sigs[i] = methodSig(it.Method(i))
	}
	sort.Strings(sigs)
	g.ifaces[strings.Join(sigs, " ")] = sigs
}

// addImportedIfaces records the named interfaces of every package pkg
// imports, transitively; Collect records pkg's own, minus its test files'.
func (g *reachGraph) addImportedIfaces(pkg *types.Package) {
	for _, imp := range pkg.Imports() {
		if g.seen[imp.Path()] {
			continue
		}
		g.seen[imp.Path()] = true
		for _, name := range imp.Scope().Names() {
			if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
				g.addIface(tn.Type())
			}
		}
		g.addImportedIfaces(imp)
	}
}

// refs returns the keys the nodes reference, recording interface literals.
func (g *reachGraph) refs(info *types.Info, nodes ...ast.Node) []string {
	var keys []string
	for _, node := range nodes {
		if node == nil {
			continue
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if k := objKey(info.Uses[n]); k != "" {
					keys = append(keys, k)
				}
			case *ast.InterfaceType:
				if t := info.TypeOf(n); t != nil {
					g.addIface(t)
				}
			}
			return true
		})
	}
	return keys
}

// eachDecl calls visit for every package-level declaration in p's non-test
// files with the nodes its references come from. Roots (init, package
// main's main, var initializers) are visited with a nil id.
func eachDecl(p *Pass, visit func(kind string, id *ast.Ident, from ...ast.Node)) {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					visit("method", d.Name, d)
				case d.Name.Name == "init" || d.Name.Name == "main" && p.Pkg.Name() == "main":
					visit("root", nil, d)
				default:
					visit("func", d.Name, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						visit("type", s.Name, s)
					case *ast.ValueSpec:
						from := []ast.Node{s.Type}
						for _, v := range s.Values {
							if d.Tok == token.VAR {
								visit("root", nil, v)
							} else {
								from = append(from, v)
							}
						}
						for _, name := range s.Names {
							visit(d.Tok.String(), name, from...)
						}
					}
				}
			}
		}
	}
}

func collectReach(p *Pass) {
	g := p.Facts.Reach
	g.addImportedIfaces(p.Pkg)
	eachDecl(p, func(_ string, id *ast.Ident, from ...ast.Node) {
		keys := g.refs(p.Info, from...)
		if id == nil {
			g.roots = append(g.roots, keys...)
			return
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			return
		}
		// Its own type rides along: an iota run's later names omit it.
		if n, ok := obj.Type().(*types.Named); ok {
			keys = append(keys, objKey(n.Obj()))
		}
		key := objKey(obj)
		g.edges[key] = append(g.edges[key], keys...)
		if tn, ok := obj.(*types.TypeName); !ok || tn.IsAlias() {
			return
		} else if _, ok := tn.Type().Underlying().(*types.Interface); ok {
			g.addIface(tn.Type())
			return
		}
		// A named type's methods, over *T's method set.
		ms := types.NewMethodSet(types.NewPointer(obj.Type()))
		g.methods[key] = map[string]string{}
		for i := 0; i < ms.Len(); i++ {
			g.methods[key][methodSig(ms.At(i).Obj().(*types.Func))] = objKey(ms.At(i).Obj())
		}
	})
}

// solve marks the closure of the roots under references and interfaces.
func (g *reachGraph) solve() {
	g.live = map[string]bool{}
	work := append([]string(nil), g.roots...)
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if g.live[k] {
			continue
		}
		g.live[k] = true
		work = append(work, g.edges[k]...)
		ms := g.methods[k]
		if len(ms) == 0 {
			continue
		}
	iface:
		for _, sigs := range g.ifaces {
			for _, s := range sigs {
				if ms[s] == "" {
					continue iface
				}
			}
			for _, s := range sigs {
				work = append(work, ms[s])
			}
		}
	}
}

func runUnreachable(p *Pass) {
	g := p.Facts.Reach
	if g.live == nil {
		g.solve()
	}
	eachDecl(p, func(kind string, id *ast.Ident, _ ...ast.Node) {
		if id == nil || id.Name == "_" {
			return
		}
		if key := objKey(p.Info.Defs[id]); key != "" && !g.live[key] {
			p.Reportf("unreachable", id.Pos(), "%s %s is not reachable from any main or init",
				kind, strings.TrimPrefix(key, p.Pkg.Path()+"."))
		}
	})
}
