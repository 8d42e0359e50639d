package socialgraph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The on-disk format is line-oriented TSV-ish text:
//
//	graph <numUsers> <numWords>
//	attrs <numAttrs>            (optional; enables attr records)
//	doc <user> <time> <w1> <w2> ...
//	attr <user> <a1> <a2> ...
//	friend <u> <v>
//	diff <i> <j> <t>
//
// Lines starting with '#' and blank lines are ignored. Documents must
// appear before diffusion links that reference them (they do, since docs
// are written first).

// WriteTo serializes g in the text format above.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(fmt.Fprintf(bw, "graph %d %d\n", g.NumUsers, g.NumWords)); err != nil {
		return n, err
	}
	if g.Attrs != nil {
		if err := count(fmt.Fprintf(bw, "attrs %d\n", g.NumAttrs)); err != nil {
			return n, err
		}
		for u, as := range g.Attrs {
			if len(as) == 0 {
				continue
			}
			if err := count(fmt.Fprintf(bw, "attr %d", u)); err != nil {
				return n, err
			}
			for _, a := range as {
				if err := count(fmt.Fprintf(bw, " %d", a)); err != nil {
					return n, err
				}
			}
			if err := count(fmt.Fprintln(bw)); err != nil {
				return n, err
			}
		}
	}
	for _, d := range g.Docs {
		if err := count(fmt.Fprintf(bw, "doc %d %d", d.User, d.Time)); err != nil {
			return n, err
		}
		for _, wid := range d.Words {
			if err := count(fmt.Fprintf(bw, " %d", wid)); err != nil {
				return n, err
			}
		}
		if err := count(fmt.Fprintln(bw)); err != nil {
			return n, err
		}
	}
	for _, f := range g.Friends {
		if err := count(fmt.Fprintf(bw, "friend %d %d\n", f.U, f.V)); err != nil {
			return n, err
		}
	}
	for _, e := range g.Diffs {
		if err := count(fmt.Fprintf(bw, "diff %d %d %d\n", e.I, e.J, e.T)); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadFile reads a graph file in the WriteTo format.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("socialgraph: %w", err)
	}
	defer f.Close()
	g, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Read parses the WriteTo format and validates the result.
func Read(r io.Reader) (*Graph, error) {
	g := &Graph{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "graph":
			if sawHeader {
				return nil, fmt.Errorf("socialgraph: duplicate graph header at line %d", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("socialgraph: malformed graph header at line %d", lineNo)
			}
			nu, err1 := strconv.Atoi(fields[1])
			nw, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("socialgraph: malformed graph header at line %d", lineNo)
			}
			g.NumUsers, g.NumWords = nu, nw
			sawHeader = true
		case "attrs":
			if !sawHeader || len(fields) != 2 {
				return nil, fmt.Errorf("socialgraph: malformed attrs header at line %d", lineNo)
			}
			na, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("socialgraph: malformed attrs header at line %d", lineNo)
			}
			g.NumAttrs = na
			g.Attrs = make([][]int32, g.NumUsers)
		case "attr":
			if !sawHeader || g.Attrs == nil || len(fields) < 3 {
				return nil, fmt.Errorf("socialgraph: malformed attr line %d (missing attrs header?)", lineNo)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil || u < 0 || u >= g.NumUsers {
				return nil, fmt.Errorf("socialgraph: bad attr user at line %d", lineNo)
			}
			for _, f := range fields[2:] {
				a, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("socialgraph: bad attr id at line %d: %w", lineNo, err)
				}
				g.Attrs[u] = append(g.Attrs[u], int32(a))
			}
		case "doc":
			if !sawHeader {
				return nil, fmt.Errorf("socialgraph: doc before graph header at line %d", lineNo)
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("socialgraph: doc with fewer than one word at line %d", lineNo)
			}
			user, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("socialgraph: bad doc user at line %d: %w", lineNo, err)
			}
			t, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("socialgraph: bad doc time at line %d: %w", lineNo, err)
			}
			words := make([]int32, 0, len(fields)-3)
			for _, f := range fields[3:] {
				wid, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("socialgraph: bad word id at line %d: %w", lineNo, err)
				}
				words = append(words, int32(wid))
			}
			g.Docs = append(g.Docs, Doc{User: int32(user), Time: t, Words: words})
		case "friend":
			if !sawHeader || len(fields) != 3 {
				return nil, fmt.Errorf("socialgraph: malformed friend line %d", lineNo)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("socialgraph: malformed friend line %d", lineNo)
			}
			g.Friends = append(g.Friends, FriendLink{int32(u), int32(v)})
		case "diff":
			if !sawHeader || len(fields) != 4 {
				return nil, fmt.Errorf("socialgraph: malformed diff line %d", lineNo)
			}
			i, err1 := strconv.Atoi(fields[1])
			j, err2 := strconv.Atoi(fields[2])
			t, err3 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("socialgraph: malformed diff line %d", lineNo)
			}
			g.Diffs = append(g.Diffs, DiffLink{int32(i), int32(j), t})
		default:
			return nil, fmt.Errorf("socialgraph: unknown record %q at line %d", fields[0], lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("socialgraph: reading graph: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("socialgraph: missing graph header")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
