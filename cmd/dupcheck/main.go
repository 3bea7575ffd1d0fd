// Command dupcheck is the session-extraction duplication gate: it hashes
// sliding windows of normalized source lines across the fabric packages
// and fails when the same >40-line block appears in two different
// non-test files. The extraction's whole point is that the transport
// bindings share the engine instead of carrying private copies of it;
// this gate keeps copy-paste from growing back.
//
// Usage:
//
//	go run ./cmd/dupcheck [-window N] [dirs...]
//
// Defaults to -window 41 (i.e. flag clones longer than 40 lines) over
// internal/core, internal/rdma, internal/session, internal/dial. Also
// prints a per-file LoC table so refactors can report net line deltas.
// Exit status 1 when any cross-file clone is found.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type site struct {
	file string
	line int // 1-based line of the window start
}

func main() {
	window := flag.Int("window", 41, "minimum clone length in normalized lines")
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"internal/core", "internal/rdma", "internal/session", "internal/dial"}
	}

	type source struct {
		path  string
		norm  []string // normalized significant lines
		lines []int    // original line number per normalized line
	}
	var files []source
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dupcheck: %v\n", err)
			os.Exit(2)
		}
		for _, ent := range entries {
			name := ent.Name()
			if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			raw, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dupcheck: %v\n", err)
				os.Exit(2)
			}
			src := source{path: path}
			for i, line := range strings.Split(string(raw), "\n") {
				n := normalize(line)
				if n == "" {
					continue
				}
				src.norm = append(src.norm, n)
				src.lines = append(src.lines, i+1)
			}
			files = append(files, src)
		}
	}

	// Hash every window; a hash seen from two distinct files is a clone.
	seen := map[uint64]site{}
	clones := map[string]bool{} // dedup report lines
	for _, f := range files {
		for i := 0; i+*window <= len(f.norm); i++ {
			h := fnv.New64a()
			for _, line := range f.norm[i : i+*window] {
				h.Write([]byte(line))
				h.Write([]byte{0})
			}
			sum := h.Sum64()
			if prev, ok := seen[sum]; ok {
				if prev.file != f.path {
					key := fmt.Sprintf("%s:%d <-> %s:%d", prev.file, prev.line, f.path, f.lines[i])
					clones[key] = true
				}
				continue
			}
			seen[sum] = site{file: f.path, line: f.lines[i]}
		}
	}

	// LoC report (significant lines, comments and blanks excluded).
	sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
	total := 0
	fmt.Printf("%-40s %8s\n", "file", "sig-loc")
	for _, f := range files {
		fmt.Printf("%-40s %8d\n", f.path, len(f.norm))
		total += len(f.norm)
	}
	fmt.Printf("%-40s %8d\n", "total", total)

	if len(clones) > 0 {
		keys := make([]string, 0, len(clones))
		for k := range clones {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(os.Stderr, "\ndupcheck: %d cross-file clone window(s) of >=%d lines:\n", len(keys), *window)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "  %s\n", k)
		}
		os.Exit(1)
	}
	fmt.Printf("dupcheck: no cross-file clones of >=%d normalized lines\n", *window)
}

// normalize strips comments and whitespace so a clone is flagged even
// after a reformat or a comment edit. Lines that become empty (pure
// comments, blanks, lone braces) drop out of the stream entirely, which
// also defeats blank-line padding between copied halves.
func normalize(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	line = strings.Join(strings.Fields(line), " ")
	if line == "" || line == "}" || line == "{" || line == ")" {
		return ""
	}
	return line
}
