package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target); targets are checked
// below when they point into the repository.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// stripCodeFences removes ``` fenced blocks — link syntax inside quoted
// code is not a document link.
func stripCodeFences(s string) string {
	var out []string
	inFence := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// generatedDocs are retrieval artifacts: they quote external documents
// whose links and commands are not this repository's to fix.
var generatedDocs = map[string]bool{"PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true}

// markdownFiles lists every *.md file under the repository root outside
// .git, hidden directories included: .github and the other dot-directories
// hold checked-in documents too.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found")
	}
	return mdFiles
}

// TestMarkdownLinks walks every *.md file in the repository and verifies
// that relative links resolve to existing files. External (http/mailto)
// links are skipped — CI has no network and their liveness is not this
// repository's contract. The CI docs job runs this test by name.
func TestMarkdownLinks(t *testing.T) {
	for _, md := range markdownFiles(t) {
		if generatedDocs[filepath.Base(md)] {
			continue
		}
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(stripCodeFences(string(data)), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			}
			// Strip an intra-document anchor; a bare anchor targets this file.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", md, m[1], resolved)
			}
		}
	}
}

var (
	// makeRule matches a Makefile rule header ("name:" but not "name :=").
	makeRule = regexp.MustCompile(`^([A-Za-z0-9_.-]+)\s*:([^=]|$)`)
	// inlineCode matches a backtick code span.
	inlineCode = regexp.MustCompile("`([^`\n]+)`")
	// taskChecklist matches a Markdown task-list item ("- [ ]" or "- [x]").
	taskChecklist = regexp.MustCompile(`(?m)^\s*[-*] \[[ xX]\] `)
)

// makeTargets returns the targets named by one `make ...` command line:
// every word after make up to a comment, skipping flags and VAR=value
// overrides. A line that does not start with make names none.
func makeTargets(cmd string) []string {
	fields := strings.Fields(cmd)
	if len(fields) == 0 || fields[0] != "make" {
		return nil
	}
	var targets []string
	for _, f := range fields[1:] {
		if strings.HasPrefix(f, "#") {
			break
		}
		if strings.HasPrefix(f, "-") || strings.Contains(f, "=") {
			continue
		}
		targets = append(targets, f)
	}
	return targets
}

// TestMarkdownMakeTargets requires every `make <target>` a checked-in
// document names — in a code span, or at the start of a line inside a
// code fence — to be a rule of the Makefile, so a deleted target cannot
// linger in the docs. Change logs and planning notes record targets that
// have since been removed, so they are skipped with the generated files;
// a planning note is any document that holds a task checklist.
func TestMarkdownMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for _, line := range strings.Split(string(mk), "\n") {
		if m := makeRule.FindStringSubmatch(line); m != nil {
			rules[m[1]] = true
		}
	}
	history := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}
	for _, md := range markdownFiles(t) {
		if base := filepath.Base(md); generatedDocs[base] || history[base] {
			continue
		}
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		if taskChecklist.Match(data) {
			continue
		}
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "```") {
				inFence = !inFence
				continue
			}
			var cmds []string
			if inFence {
				cmds = []string{trimmed}
			} else {
				for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
					cmds = append(cmds, m[1])
				}
			}
			for _, cmd := range cmds {
				for _, target := range makeTargets(cmd) {
					if !rules[target] {
						t.Errorf("%s:%d: `make %s` names no Makefile target", md, i+1, target)
					}
				}
			}
		}
	}
}

// goDecls indexes the declarations a document may name: per package name,
// its top-level identifiers, and per type name (package-qualified and
// bare), its methods and fields.
type goDecls struct {
	top     map[string]map[string]bool // package name → top-level names
	members map[string]map[string]bool // "Type" and "pkg.Type" → methods, fields
}

func newGoDecls() *goDecls {
	return &goDecls{top: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
}

func (d *goDecls) addMember(pkg, typ, name string) {
	for _, k := range []string{typ, pkg + "." + typ} {
		if d.members[k] == nil {
			d.members[k] = map[string]bool{}
		}
		d.members[k][name] = true
	}
}

// add records f's top-level declarations under its package name.
func (d *goDecls) add(f *ast.File) {
	pkg := f.Name.Name
	if d.top[pkg] == nil {
		d.top[pkg] = map[string]bool{}
	}
	for _, decl := range f.Decls {
		switch x := decl.(type) {
		case *ast.FuncDecl:
			if x.Recv == nil || len(x.Recv.List) == 0 {
				d.top[pkg][x.Name.Name] = true
				continue
			}
			typ := x.Recv.List[0].Type
			for {
				switch r := typ.(type) {
				case *ast.StarExpr:
					typ = r.X
					continue
				case *ast.IndexExpr:
					typ = r.X
					continue
				case *ast.IndexListExpr:
					typ = r.X
					continue
				}
				break
			}
			if id, ok := typ.(*ast.Ident); ok {
				d.addMember(pkg, id.Name, x.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range x.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						d.top[pkg][n.Name] = true
					}
				case *ast.TypeSpec:
					d.top[pkg][s.Name.Name] = true
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							d.addMember(pkg, s.Name.Name, n.Name)
						}
						if len(fl.Names) == 0 { // embedded: a field named after its type
							typ := fl.Type
							if star, ok := typ.(*ast.StarExpr); ok {
								typ = star.X
							}
							switch e := typ.(type) {
							case *ast.Ident:
								d.addMember(pkg, s.Name.Name, e.Name)
							case *ast.SelectorExpr:
								d.addMember(pkg, s.Name.Name, e.Sel.Name)
							}
						}
					}
				}
			}
		}
	}
}

// moduleGoFiles parses every Go file of the module, test files included,
// with comments.
func moduleGoFiles(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

var (
	// docSymbol matches a code span that names a Go symbol: a dotted
	// identifier chain, optionally as a method expression (*T).M or with
	// an empty call suffix.
	docSymbol = regexp.MustCompile(`^(?:\(\*([A-Za-z_]\w*)\)|([A-Za-z_]\w*))((?:\.[A-Za-z_]\w*)+)(?:\(\))?$`)
	// fileExt lists the file suffixes a dotted code span may end in
	// without naming a symbol (`DESIGN.md`, `checkpoint.json`).
	fileExt = map[string]bool{"md": true, "go": true, "json": true, "mod": true, "log": true,
		"net": true, "load": true, "csv": true, "gr": true, "co": true, "traffic": true, "sh": true, "yml": true}
	// designCite matches a DESIGN.md section citation and the run of §
	// references that follows it ("DESIGN.md §11.3–§11.4, §12").
	designCite = regexp.MustCompile(`DESIGN\.md ((?:§\d+(?:\.\d+)?(?:\s*(?:,|–|-|/|and|or)\s*)?)+)`)
	designRef  = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
	// designSection matches the number a DESIGN.md heading or marker
	// opens with.
	designSection = regexp.MustCompile(`^\d+(\.\d+)?`)
)

// TestDocSymbols holds the reference documents to the code. Every Go
// symbol README.md and FORMATS.md name in a code span — `pkg.Name`,
// `Type.Method`, `pkg.Type.Method`, `(*Type).Method` — must resolve to a
// declaration in the module, or in a standard-library package the module
// imports, so a deleted symbol cannot linger there. And every
// `DESIGN.md §N` or `§N.M` a Go comment cites must be a `## §N` heading
// or a `**§N.M` marker of DESIGN.md.
func TestDocSymbols(t *testing.T) {
	fset, files := moduleGoFiles(t)
	mod := newGoDecls()
	std := map[string]string{} // package name → standard-library import path
	for _, f := range files {
		mod.add(f)
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if strings.Contains(strings.SplitN(path, "/", 2)[0], ".") || strings.HasPrefix(path, "repro") {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			std[name] = path
		}
	}
	stdDecls := map[string]*goDecls{}
	stdPkg := func(name string) *goDecls {
		path, ok := std[name]
		if !ok {
			return nil
		}
		if d, ok := stdDecls[path]; ok {
			return d
		}
		d := newGoDecls()
		dir := filepath.Join(runtime.GOROOT(), "src", filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("standard library package %s: %v", path, err)
		}
		for _, e := range entries {
			if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, n), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				d.add(f)
			}
		}
		stdDecls[path] = d
		return d
	}

	// resolve reports why span names no declaration, or "" if it does
	// (or names no symbol at all).
	resolve := func(span string) string {
		m := docSymbol.FindStringSubmatch(span)
		if m == nil {
			return ""
		}
		parts := strings.Split(m[1]+m[2]+m[3], ".")
		if len(parts) > 3 || fileExt[parts[len(parts)-1]] {
			return ""
		}
		exported := func(s string) bool { return s[0] >= 'A' && s[0] <= 'Z' }
		if exported(parts[0]) { // Type.Member
			if len(parts) != 2 {
				return ""
			}
			if !mod.members[parts[0]][parts[1]] {
				return "no method or field " + parts[1] + " of a type " + parts[0]
			}
			return ""
		}
		pkg, name := parts[0], parts[1]
		if !exported(name) {
			return "" // a file name or a metric key, not a symbol
		}
		d := mod
		if d.top[pkg] == nil {
			if d = stdPkg(pkg); d == nil {
				return "no package " + pkg + " in the module or its standard-library imports"
			}
		}
		if !d.top[pkg][name] {
			return "no declaration " + name + " in package " + pkg
		}
		if len(parts) == 3 && !d.members[pkg+"."+name][parts[2]] {
			return "no method or field " + parts[2] + " of " + pkg + "." + name
		}
		return ""
	}
	for _, md := range []string{"README.md", "FORMATS.md"} {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range inlineCode.FindAllStringSubmatch(stripCodeFences(string(data)), -1) {
			if why := resolve(m[1]); why != "" {
				t.Errorf("%s: `%s`: %s", md, m[1], why)
			}
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, line := range strings.Split(string(design), "\n") {
		for _, prefix := range []string{"## §", "**§"} {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				if m := designSection.FindString(rest); m != "" {
					sections[m] = true
				}
			}
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cite := range designCite.FindAllStringSubmatch(cg.Text(), -1) {
				for _, ref := range designRef.FindAllStringSubmatch(cite[1], -1) {
					if !sections[ref[1]] {
						t.Errorf("%s: cites DESIGN.md §%s, which DESIGN.md has no heading for",
							fset.Position(cg.Pos()), ref[1])
					}
				}
			}
		}
	}
}
