package app

import (
	"bytes"
	"strconv"
	"testing"
)

// splitNRequestLine is the request-line parse httpd used before it parsed
// in place: bytes.SplitN on single spaces, kept as the reference that
// parseRequestLine must match.
func splitNRequestLine(line []byte) (method, path []byte, ok bool) {
	parts := bytes.SplitN(line, []byte(" "), 3)
	if len(parts) < 3 {
		return nil, nil, false
	}
	return parts[0], parts[1], true
}

// FuzzHTTPRequestLine checks that httpd's in-place request-line parse
// agrees with the SplitN reference on the method, the path and the
// bad-request decision for every request head.
func FuzzHTTPRequestLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, req []byte) {
		line := req
		if i := bytes.IndexByte(line, '\r'); i >= 0 {
			line = line[:i]
		}
		method, path, ok := parseRequestLine(line)
		wantMethod, wantPath, wantOK := splitNRequestLine(line)
		bad := !ok || string(method) != "GET"
		wantBad := !wantOK || string(wantMethod) != "GET"
		if ok != wantOK || bad != wantBad ||
			!bytes.Equal(method, wantMethod) || !bytes.Equal(path, wantPath) {
			t.Fatalf("line %q: got (%q, %q, ok=%v, bad=%v), SplitN gives (%q, %q, ok=%v, bad=%v)",
				line, method, path, ok, bad, wantMethod, wantPath, wantOK, wantBad)
		}
	})
}

// FuzzParseContentLength feeds arbitrary response heads to the loadgen's
// Content-Length parser: it must not panic, must never report a negative
// length (the body countdown would then index backwards), and a canonical
// "Content-Length: N" header placed first must parse back to N whatever
// header lines follow it.
func FuzzParseContentLength(f *testing.F) {
	f.Fuzz(func(t *testing.T, head []byte, n uint32) {
		if got := parseContentLength(head); got < 0 {
			t.Fatalf("head %q: negative length %d", head, got)
		}
		canon := []byte("HTTP/1.1 200 OK\r\nContent-Length: " + strconv.FormatUint(uint64(n), 10) + "\r\n")
		if got := parseContentLength(append(canon, head...)); got != int(n) {
			t.Fatalf("canonical length %d followed by %q parsed as %d", n, head, got)
		}
	})
}
