package trace

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
)

// DNS wire-format constants (RFC 1035).
const (
	dnsHeaderLen = 12
	// QTypeA and QTypeAAAA are the query types the generator mixes.
	QTypeA    = 1
	QTypeAAAA = 28
	qClassIN  = 1
	// dnsFlagsRD is a standard recursive query's flag word.
	dnsFlagsRD = 0x0100
)

// QueryWireLen is the on-wire size the paper filters for: "queries of
// 34 B going to the main DNS resolver".
const QueryWireLen = 34

// StrippedQueryLen is QueryWireLen minus the 2-byte transaction
// identifier the paper excludes ("which is a random number") — the
// 256-bit chunk ZipLine actually sees.
const StrippedQueryLen = QueryWireLen - 2

// DNSConfig parameterises the campus-DNS workload. Zero values take
// the paper's scale.
type DNSConfig struct {
	// Queries is the total query count (default 735,000 ≈ the 25 MB
	// day of filtered traffic in Figure 3).
	Queries int
	// Domains is the catalogue of distinct queried names (default
	// 4,000 — one per campus user, in the spirit of [31]).
	Domains int
	// Seed drives all randomness (default 2).
	Seed int64
}

// Paper-scale defaults for DNSConfig.
const (
	DefaultDNSQueries = 735_000
	DefaultDNSDomains = 4_000
)

const (
	// zipfS is the popularity skew, in the band measured for DNS name
	// popularity (lookups are famously Zipf-distributed).
	zipfS = 1.30
	// aaaaProb is the share of IPv6 queries mixed in.
	aaaaProb = 0.15
)

func (c DNSConfig) withDefaults() DNSConfig {
	if c.Queries == 0 {
		c.Queries = DefaultDNSQueries
	}
	if c.Domains == 0 {
		c.Domains = DefaultDNSDomains
	}
	if c.Seed == 0 {
		c.Seed = 2
	}
	return c
}

// DNS generates the campus-DNS workload after the paper's filter:
// each record is a 32-byte query (transaction ID already stripped).
// All queries are 34 bytes on the wire before stripping, which pins
// the encoded QNAME to exactly 18 bytes; the generator builds names
// of the form www.<8 letters>.<3-letter TLD> to match.
func DNS(cfg DNSConfig) *Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	names := dnsCatalogue(rng, cfg.Domains)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(cfg.Domains-1))

	data := make([]byte, 0, cfg.Queries*StrippedQueryLen)
	for i := 0; i < cfg.Queries; i++ {
		name := names[zipf.Uint64()]
		qtype := uint16(QTypeA)
		if rng.Float64() < aaaaProb {
			qtype = QTypeAAAA
		}
		q := BuildQuery(uint16(rng.Intn(1<<16)), name, qtype)
		if len(q) != QueryWireLen {
			panic(fmt.Sprintf("trace: query for %q is %d bytes, want %d", name, len(q), QueryWireLen))
		}
		data = append(data, StripTxID(q)...)
	}
	return NewTrace("dns-campus", StrippedQueryLen, data)
}

// dnsCatalogue builds n distinct names whose encoded QNAME is exactly
// 18 bytes: www.xxxxxxxx.tld with an 8-letter middle label and a
// 3-letter TLD.
func dnsCatalogue(rng *rand.Rand, n int) []string {
	tlds := []string{"edu", "com", "org", "net"}
	const letters = "abcdefghijklmnopqrstuvwxyz"
	seen := make(map[string]bool, n)
	names := make([]string, 0, n)
	for len(names) < n {
		var sb strings.Builder
		sb.WriteString("www.")
		for i := 0; i < 8; i++ {
			sb.WriteByte(letters[rng.Intn(len(letters))])
		}
		sb.WriteByte('.')
		sb.WriteString(tlds[rng.Intn(len(tlds))])
		name := sb.String()
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return names
}

// BuildQuery assembles a standard recursive DNS query (header +
// single question) in wire format.
func BuildQuery(txid uint16, name string, qtype uint16) []byte {
	out := make([]byte, dnsHeaderLen, dnsHeaderLen+len(name)+6)
	binary.BigEndian.PutUint16(out[0:], txid)
	binary.BigEndian.PutUint16(out[2:], dnsFlagsRD)
	binary.BigEndian.PutUint16(out[4:], 1) // QDCOUNT
	// ANCOUNT, NSCOUNT, ARCOUNT stay zero.
	out = AppendName(out, name)
	out = binary.BigEndian.AppendUint16(out, qtype)
	out = binary.BigEndian.AppendUint16(out, qClassIN)
	return out
}

// AppendName appends a domain name in DNS label encoding.
func AppendName(dst []byte, name string) []byte {
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		if len(label) == 0 || len(label) > 63 {
			panic(fmt.Sprintf("trace: invalid DNS label %q in %q", label, name))
		}
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
	}
	return append(dst, 0)
}

// StripTxID removes the 2-byte transaction identifier, the paper's
// preprocessing step.
func StripTxID(query []byte) []byte {
	out := make([]byte, len(query)-2)
	copy(out, query[2:])
	return out
}
