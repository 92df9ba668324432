package netplace_test

// This file is the repository's documentation gate, run by CI alongside
// gofmt and go vet: every package must carry a package-level doc comment,
// every exported symbol (type, function, method, and var/const — at the
// declaration-group level, per godoc convention) must carry a doc
// comment, every HTTP route the service registers must be documented in
// docs/http-api.md, and every examples/ directory must be referenced
// from README.md. It is a test rather than a separate linter binary so
// that `go test ./...` enforces it without external tooling.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// sourceDirs returns every directory under the module root that contains
// non-test Go files, skipping hidden directories.
func sourceDirs(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

// TestPackageDocComments asserts that every package has a package-level doc
// comment on at least one of its files.
func TestPackageDocComments(t *testing.T) {
	for _, dir := range sourceDirs(t) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package-level doc comment", name, dir)
			}
		}
	}
}

// TestExportedSymbolDocComments asserts that every exported top-level
// symbol carries a doc comment. Grouped var/const declarations satisfy the
// rule with one comment on the group; struct fields and interface methods
// are out of scope (they document themselves through their type's comment
// when short).
func TestExportedSymbolDocComments(t *testing.T) {
	var missing []string
	for _, dir := range sourceDirs(t) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					missing = append(missing, undocumented(fset, decl)...)
				}
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("missing doc comment: %s", m)
	}
}

// undocumented returns the exported, uncommented symbols of one top-level
// declaration, formatted as "position: name".
func undocumented(fset *token.FileSet, decl ast.Decl) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		out = append(out, fmt.Sprintf("%s: %s %s", fset.Position(pos), kind, name))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		name := d.Name.Name
		if d.Recv != nil && len(d.Recv.List) > 0 {
			recv := receiverType(d.Recv.List[0].Type)
			if recv != "" && !ast.IsExported(recv) {
				return nil // method on an unexported type
			}
			name = recv + "." + name
		}
		report(d.Pos(), "func", name)
	case *ast.GenDecl:
		if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
			return nil
		}
		groupDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				// A type in a grouped decl (type ( A; B )) needs its own
				// comment unless the group has one.
				if s.Name.IsExported() && s.Doc == nil && s.Comment == nil && !groupDoc {
					report(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				if s.Doc != nil || s.Comment != nil || groupDoc {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						report(n.Pos(), d.Tok.String(), n.Name)
					}
				}
			}
		}
	}
	return out
}

// routePattern matches the method+path literals registered on the
// service mux, e.g. `HandleFunc("POST /instances/{id}/solve"`.
var routePattern = regexp.MustCompile(`HandleFunc\("((?:GET|POST|PUT|DELETE|PATCH) [^"]+)"`)

// TestHTTPRoutesDocumented asserts that every HTTP route registered in
// internal/service/server.go appears verbatim (method and path) in
// docs/http-api.md — the docs cannot silently fall behind the API.
func TestHTTPRoutesDocumented(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("internal", "service", "server.go"))
	if err != nil {
		t.Fatal(err)
	}
	matches := routePattern.FindAllStringSubmatch(string(src), -1)
	if len(matches) < 10 {
		t.Fatalf("found only %d routes in internal/service/server.go; pattern rot?", len(matches))
	}
	docs, err := os.ReadFile(filepath.Join("docs", "http-api.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if !strings.Contains(string(docs), m[1]) {
			t.Errorf("route %q registered in internal/service/server.go but missing from docs/http-api.md", m[1])
		}
	}
}

// TestExamplesReferenced asserts that every examples/ directory is
// referenced from README.md, so shipped examples stay discoverable.
func TestExamplesReferenced(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !strings.Contains(string(readme), "examples/"+e.Name()) &&
			!strings.Contains(string(readme), "`"+e.Name()+"`") {
			t.Errorf("examples/%s is not referenced from README.md", e.Name())
		}
	}
}

// TestDocsCrossLinked asserts that the docs/ pages are linked from
// README.md and ARCHITECTURE.md.
func TestDocsCrossLinked(t *testing.T) {
	pages, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil || len(pages) < 3 {
		t.Fatalf("docs pages missing (%v): %v", pages, err)
	}
	for _, top := range []string{"README.md", "ARCHITECTURE.md"} {
		buf, err := os.ReadFile(top)
		if err != nil {
			t.Fatal(err)
		}
		for _, page := range pages {
			if !strings.Contains(string(buf), filepath.ToSlash(page)) {
				t.Errorf("%s does not link %s", top, page)
			}
		}
	}
}

// TestPersistenceDocs asserts the durability layer stays documented:
// docs/persistence.md exists and covers the data-dir flag, the WAL, and
// recovery; the HTTP API page links it (the /statz persistence fields
// live there); and cmd/netplaced's doc comment mentions -data-dir.
func TestPersistenceDocs(t *testing.T) {
	page, err := os.ReadFile(filepath.Join("docs", "persistence.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-data-dir", "write-ahead", "wal_discarded_bytes", "recovered_sessions", "-no-sync"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("docs/persistence.md does not mention %q", want)
		}
	}
	api, err := os.ReadFile(filepath.Join("docs", "http-api.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(api), "persistence.md") {
		t.Error("docs/http-api.md does not link persistence.md")
	}
	cmd, err := os.ReadFile(filepath.Join("cmd", "netplaced", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(cmd), "-data-dir") || !strings.Contains(string(cmd), "docs/persistence.md") {
		t.Error("cmd/netplaced doc comment does not cover -data-dir / docs/persistence.md")
	}
}

// TestResilienceDocs asserts the overload-resilience layer stays
// documented: docs/resilience.md exists and covers admission control,
// deadlines, stale reads, idempotent retries, and group commit; the
// HTTP API page links it (the 429/headers/statz fields live there); and
// cmd/netplaced's doc comment mentions the new knobs.
func TestResilienceDocs(t *testing.T) {
	page, err := os.ReadFile(filepath.Join("docs", "resilience.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"-max-queue", "Retry-After", "X-Netplace-Deadline",
		"X-Netplace-Allow-Stale", "-fsync-interval", "deduped_batches",
		"/readyz", "429",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("docs/resilience.md does not mention %q", want)
		}
	}
	api, err := os.ReadFile(filepath.Join("docs", "http-api.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(api), "resilience.md") {
		t.Error("docs/http-api.md does not link resilience.md")
	}
	cmd, err := os.ReadFile(filepath.Join("cmd", "netplaced", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(cmd), "-max-queue") || !strings.Contains(string(cmd), "docs/resilience.md") {
		t.Error("cmd/netplaced doc comment does not cover -max-queue / docs/resilience.md")
	}
}

// TestClusterDocs asserts the scale-out layer stays documented:
// docs/cluster.md exists and covers the membership and drain flags, the
// hash ring, the hop guard, and the merged stats view; the HTTP API page
// links it (the replica routes and peer counters live there); and the
// two cluster-aware commands' doc comments point at it.
func TestClusterDocs(t *testing.T) {
	page, err := os.ReadFile(filepath.Join("docs", "cluster.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"-cluster", "-self", "-drain-peer",
		"consistent-hash", "X-Netplace-Forwarded", "/statz?cluster=1",
		"byte-identical", "-peers",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("docs/cluster.md does not mention %q", want)
		}
	}
	api, err := os.ReadFile(filepath.Join("docs", "http-api.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(api), "cluster.md") {
		t.Error("docs/http-api.md does not link cluster.md")
	}
	daemon, err := os.ReadFile(filepath.Join("cmd", "netplaced", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(daemon), "-cluster") || !strings.Contains(string(daemon), "docs/cluster.md") {
		t.Error("cmd/netplaced doc comment does not cover -cluster / docs/cluster.md")
	}
	replay, err := os.ReadFile(filepath.Join("cmd", "netreplay", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(replay), "-peers") || !strings.Contains(string(replay), "docs/cluster.md") {
		t.Error("cmd/netreplay doc comment does not cover -peers / docs/cluster.md")
	}
}

// kernelDirs are the packages that implement the paper's algorithm. They
// keep one implementation per job: a second copy of a kernel, or a helper
// only tests call, is what TestNoUnreachedExports catches.
var kernelDirs = []string{"internal/graph", "internal/metric", "internal/core", "internal/stream"}

// unreachedAllowed lists the exported functions and methods of
// kernelDirs that no non-test file names but that stay, each with its
// reason. Keys are package.Func or package.Type.Method.
var unreachedAllowed = map[string]string{
	"graph.Graph.MSTKruskal":    "the independent reference the MetricMST tests check against",
	"graph.Graph.Degree":        "the gen and CSR tests' structure checks",
	"graph.Graph.NeighborList":  "the CSR tests' structure checks and the Steiner tests' reference",
	"metric.Space.Check":        "the tests' check of the metric axioms the paper's lemmas assume",
	"metric.AvgDist":            "the paper's d(v, z), the reference the radii kernels are tested against",
	"core.MakeRestricted":       "builds the restricted placement whose cost Lemma 1 bounds, for its tests",
	"core.Instance.ServeCounts": "counts the requests each copy serves, for the restricted-placement tests",
	"core.Instance.NearestCopy": "public API through the netplace.Instance alias",
	"stream.WriteTrace":         "encodes the trace format in the fuzz round trip",
}

// TestNoUnreachedExports asserts that every exported function or method
// declared in the non-test files of kernelDirs is named by a non-test file
// somewhere in the repository (netbench/ included), or is listed in
// unreachedAllowed with its reason. Every allowlist entry must name a
// declared function that is still unreached, so the list cannot go stale.
//
// The check is syntactic (go/ast, no type checking). A package-level
// function counts as named by a bare identifier in its own package or by a
// pkg.Func selector through an import of that package. A method counts as
// named by any selector with its name, whatever the receiver, so a method
// whose name another type's reached method shares counts as reached.
func TestNoUnreachedExports(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(dir string) map[string]*ast.Package {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return pkgs
	}
	named := map[string]bool{}     // "<dir>.<name>" for package-level uses
	selectors := map[string]bool{} // every selector name, for methods
	for _, dir := range sourceDirs(t) {
		pkgs := parse(dir)
		dir = filepath.ToSlash(dir)
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				imports := map[string]string{} // local name -> package dir
				for _, imp := range f.Imports {
					p := strings.Trim(imp.Path.Value, `"`)
					rel, ok := strings.CutPrefix(p, "netplace/")
					if !ok {
						continue
					}
					local := path.Base(p)
					if imp.Name != nil {
						local = imp.Name.Name
					}
					imports[local] = rel
				}
				skip := map[*ast.Ident]bool{}
				ast.Inspect(f, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.FuncDecl:
						skip[x.Name] = true // a declaration names nothing
					case *ast.SelectorExpr:
						skip[x.Sel] = true
						selectors[x.Sel.Name] = true
						if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
							named[imports[id.Name]+"."+x.Sel.Name] = true
						}
					case *ast.Ident:
						if !skip[x] {
							named[dir+"."+x.Name] = true
						}
					}
					return true
				})
			}
		}
	}

	declared := map[string]bool{}
	for _, dir := range kernelDirs {
		for _, pkg := range parse(dir) {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || !fn.Name.IsExported() {
						continue
					}
					key := path.Base(dir) + "." + fn.Name.Name
					reached := named[dir+"."+fn.Name.Name]
					if fn.Recv != nil && len(fn.Recv.List) > 0 {
						key = path.Base(dir) + "." + receiverType(fn.Recv.List[0].Type) + "." + fn.Name.Name
						reached = selectors[fn.Name.Name]
					}
					declared[key] = true
					_, allowed := unreachedAllowed[key]
					switch {
					case !reached && !allowed:
						t.Errorf("%s: %s is named by no non-test file; delete it or list it in unreachedAllowed with its reason",
							fset.Position(fn.Pos()), key)
					case reached && allowed:
						t.Errorf("%s is reached; drop it from unreachedAllowed", key)
					}
				}
			}
		}
	}
	for key := range unreachedAllowed {
		if !declared[key] {
			t.Errorf("unreachedAllowed lists %s, which is not declared", key)
		}
	}
}

// receiverType extracts the receiver's type name from a method receiver
// expression (*T, T, or generic T[...]).
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
