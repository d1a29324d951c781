// Package auth authenticates rdvd requests with static bearer tokens
// and maps each token to a tenant identity — the id, fair-share weight
// and rate limit the admission layer schedules by.
//
// Tokens live in a plain text file (the daemon's -auth-tokens flag),
// one grant per line:
//
//	# token            tenant  weight  [rate [burst]]
//	s3cr3t-heavy-token heavy   10
//	s3cr3t-light-token light   1       5
//	s3cr3t-ops-token   ops     1       0.5   3
//
// Fields are whitespace-separated; '#' starts a comment. rate is the
// sustained request budget in requests/second (omitted or 0 =
// unlimited) and burst the bucket size (omitted = max(1, rate)).
// Multiple tokens may map to the same tenant (they share one admission
// queue and one rate bucket).
//
// Verification never compares raw tokens: the table stores SHA-256
// digests and presented tokens are digested before a constant-time
// comparison over every entry, so neither the match position nor the
// token length leaks through timing. A nil *Authenticator means auth
// is disabled: every request is the Anonymous tenant and the daemon
// behaves exactly as it did before authentication existed.
package auth

import (
	"bufio"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"rendezvous/internal/admission"
)

// Tenant is the identity a token grants: the admission scheduler's
// own tenant type, so an authenticated identity is scheduled as is.
// Its ID also keys metrics and request logs.
type Tenant = admission.Tenant

// Anonymous is the tenant of every request when authentication is
// disabled: weight 1, no rate limit — the single-tenant daemon's
// pre-auth behaviour.
var Anonymous = Tenant{ID: "anonymous", Weight: 1}

// Field bounds. They reject nothing legitimate (a weight is a share
// ratio, not a capacity) while keeping crafted token files from
// smuggling pathological values into the scheduler.
const (
	// MinTokenLen rejects trivially guessable tokens.
	MinTokenLen = 8
	// MaxTokenLen bounds the digest input.
	MaxTokenLen = 512
	// MaxWeight bounds the fair-share ratio.
	MaxWeight = 1_000_000
	// MaxLineLen bounds one token-file line.
	MaxLineLen = 4096
)

// entry pairs a token digest with its tenant.
type entry struct {
	digest [sha256.Size]byte
	tenant Tenant
}

// Authenticator verifies bearer tokens against a static table. It is
// immutable after construction and safe for concurrent use. The nil
// *Authenticator is valid and means "auth disabled".
type Authenticator struct {
	entries []entry
}

// Enabled reports whether authentication is configured (false for the
// nil authenticator).
func (a *Authenticator) Enabled() bool { return a != nil && len(a.entries) > 0 }

// Tenants returns the distinct tenant IDs in the table, in first-seen
// order.
func (a *Authenticator) Tenants() []string {
	if a == nil {
		return nil
	}
	seen := make(map[string]bool)
	var ids []string
	for _, e := range a.entries {
		if !seen[e.tenant.ID] {
			seen[e.tenant.ID] = true
			ids = append(ids, e.tenant.ID)
		}
	}
	return ids
}

// ParseTokens parses a token file. Every malformed line is an error
// naming its line number; a file with no grants is an error (an empty
// auth table would lock every caller out, which is better said at
// startup than discovered per request).
func ParseTokens(data []byte) (*Authenticator, error) {
	a := &Authenticator{}
	seenTokens := make(map[[sha256.Size]byte]int)
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, MaxLineLen+1), MaxLineLen+1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 || len(fields) > 5 {
			return nil, fmt.Errorf("auth: line %d: want \"token tenant weight [rate [burst]]\", got %d field(s)", lineNo, len(fields))
		}
		token, id := fields[0], fields[1]
		if len(token) < MinTokenLen {
			return nil, fmt.Errorf("auth: line %d: token shorter than %d characters", lineNo, MinTokenLen)
		}
		if len(token) > MaxTokenLen {
			return nil, fmt.Errorf("auth: line %d: token longer than %d characters", lineNo, MaxTokenLen)
		}
		if !validTenantID(id) {
			return nil, fmt.Errorf("auth: line %d: tenant id %q: want 1-128 characters of [A-Za-z0-9._-]", lineNo, id)
		}
		weight, err := strconv.Atoi(fields[2])
		if err != nil || weight < 1 || weight > MaxWeight {
			return nil, fmt.Errorf("auth: line %d: weight %q: want an integer in 1..%d", lineNo, fields[2], MaxWeight)
		}
		var rate, burst float64
		if len(fields) >= 4 {
			rate, err = strconv.ParseFloat(fields[3], 64)
			if err != nil || rate < 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
				return nil, fmt.Errorf("auth: line %d: rate %q: want a finite requests/second >= 0", lineNo, fields[3])
			}
		}
		if len(fields) == 5 {
			burst, err = strconv.ParseFloat(fields[4], 64)
			if err != nil || burst < 1 || math.IsInf(burst, 0) || math.IsNaN(burst) {
				return nil, fmt.Errorf("auth: line %d: burst %q: want a finite bucket size >= 1", lineNo, fields[4])
			}
			if rate == 0 {
				return nil, fmt.Errorf("auth: line %d: burst without a rate is meaningless", lineNo)
			}
		}
		digest := sha256.Sum256([]byte(token))
		if prev, dup := seenTokens[digest]; dup {
			return nil, fmt.Errorf("auth: line %d: token already granted on line %d", lineNo, prev)
		}
		seenTokens[digest] = lineNo
		a.entries = append(a.entries, entry{
			digest: digest,
			tenant: Tenant{ID: id, Weight: weight, Rate: rate, Burst: burst},
		})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("auth: line %d: longer than %d bytes", lineNo+1, MaxLineLen)
		}
		return nil, fmt.Errorf("auth: reading token file: %w", err)
	}
	if len(a.entries) == 0 {
		return nil, errors.New("auth: token file grants no tokens")
	}
	return a, nil
}

// LoadTokens reads and parses a token file from disk.
func LoadTokens(path string) (*Authenticator, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("auth: %w", err)
	}
	a, err := ParseTokens(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return a, nil
}

// validTenantID bounds tenant names to a label-safe charset.
func validTenantID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ErrUnauthorized is the (deliberately uninformative) failure every
// rejected credential maps to: a missing header, a malformed header
// and an unknown token are indistinguishable to the caller.
var ErrUnauthorized = errors.New("auth: unauthorized")

// Authenticate resolves an Authorization header value to its tenant.
// The expected form is "Bearer <token>" (scheme case-insensitive). A
// nil authenticator accepts everything as Anonymous. Every failure is
// ErrUnauthorized; the function never panics on malformed input.
func (a *Authenticator) Authenticate(header string) (Tenant, error) {
	if a == nil || len(a.entries) == 0 {
		return Anonymous, nil
	}
	token, ok := bearerToken(header)
	if !ok {
		return Tenant{}, ErrUnauthorized
	}
	digest := sha256.Sum256([]byte(token))
	// Constant-time scan: every entry is compared, the match index is
	// accumulated arithmetically, and no branch depends on where (or
	// whether) the match happened until the scan is over.
	match := -1
	for i := range a.entries {
		eq := subtle.ConstantTimeCompare(digest[:], a.entries[i].digest[:])
		match = subtle.ConstantTimeSelect(eq, i, match)
	}
	if match < 0 {
		return Tenant{}, ErrUnauthorized
	}
	return a.entries[match].tenant, nil
}

// bearerToken extracts the token of a "Bearer <token>" header value.
func bearerToken(header string) (string, bool) {
	const scheme = "Bearer "
	if len(header) < len(scheme) || !strings.EqualFold(header[:len(scheme)], scheme) {
		return "", false
	}
	token := strings.TrimSpace(header[len(scheme):])
	if len(token) < MinTokenLen || len(token) > MaxTokenLen || strings.ContainsAny(token, " \t") {
		return "", false
	}
	return token, true
}
