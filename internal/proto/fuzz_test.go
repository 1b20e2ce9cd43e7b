package proto

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to DecodeFrame. Whatever arrives
// off the wire, decoding must return an error rather than panic, and a
// frame that decodes as unfragmented TCP/IPv4 must re-marshal to the same
// header fields and payload. The seed corpus in testdata/fuzz holds a
// valid TCP/IPv4 frame, a truncated Ethernet header, an IPv4 header with
// IHL < 5 and a TCP data offset past the end of the segment.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := DecodeFrame(raw)
		if err != nil || fr.TCP == nil {
			return
		}
		again, err := DecodeFrame(BuildTCP(fr.Eth, *fr.IP, *fr.TCP, fr.Payload))
		if err != nil {
			t.Fatalf("re-marshalled frame does not decode: %v", err)
		}
		// Marshal recomputes checksums and lengths, always writes a
		// 20-byte IPv4 header and drops TCP options it does not know.
		ip1, ip2 := *fr.IP, *again.IP
		ip1.Checksum, ip2.Checksum, ip1.TotalLen, ip2.TotalLen = 0, 0, 0, 0
		tcp1, tcp2 := *fr.TCP, *again.TCP
		tcp1.Checksum, tcp2.Checksum = 0, 0
		if fr.Eth != again.Eth || ip1 != ip2 || tcp1 != tcp2 || !bytes.Equal(fr.Payload, again.Payload) {
			t.Fatalf("round trip changed the frame:\n%+v %+v %+v %q\n%+v %+v %+v %q",
				fr.Eth, ip1, tcp1, fr.Payload, again.Eth, ip2, tcp2, again.Payload)
		}
	})
}
