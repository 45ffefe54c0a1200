package mec

import "fmt"

// Book is the residual resource book Alg. 1 has every BS keep: the CRUs
// it has left per service (Eq. 12) and the radio blocks it has left
// (Eq. 14), debited as it admits requests (lines 11-25) and broadcast
// after each round (line 26). Its rows are int32 and shaped like the
// store's capacity rows: CRU[b*Services+j] is BS b's residual CRUs for
// service j, RRB[b] its residual RRBs. A book spans any number of BSs —
// the whole network for a shared state or an arena, a single BS (row 0)
// for a BS server.
//
// Demands arrive as int: callers compare them against Residual in int
// and Admit only what fits, so the debit never wraps the int32 rows.
// The zero value is an empty book; Reset sizes it.
type Book struct {
	// Services is the stride of CRU.
	Services int
	CRU      []int32
	RRB      []int32
}

// Reset rewinds the book to the given capacity rows — cruCap
// Services-strided, one maxRRB entry per BS, as in CSR.CRUCap and
// MaxRRB — reusing its storage.
func (k *Book) Reset(services int, cruCap, maxRRB []int32) {
	k.Services = services
	k.CRU = append(k.CRU[:0], cruCap...)
	k.RRB = append(k.RRB[:0], maxRRB...)
}

// Row returns BS b's residual-CRU row, one entry per service, aliasing
// the book's storage.
func (k *Book) Row(b BSID) []int32 {
	return k.CRU[int(b)*k.Services:][:k.Services]
}

// Residual returns BS b's remaining CRUs for service j and its remaining
// RRBs: the two Eq. 17 inputs that change during matching.
func (k *Book) Residual(b BSID, j ServiceID) (remCRU, remRRBs int) {
	return int(k.CRU[int(b)*k.Services+int(j)]), int(k.RRB[b])
}

// Admit debits crus CRUs of service j and rrbs RRBs from BS b. The caller
// has checked them against Residual.
func (k *Book) Admit(b BSID, j ServiceID, crus, rrbs int) {
	k.CRU[int(b)*k.Services+int(j)] -= int32(crus)
	k.RRB[b] -= int32(rrbs)
}

// Release credits back what an Admit of the same demands debited.
func (k *Book) Release(b BSID, j ServiceID, crus, rrbs int) {
	k.CRU[int(b)*k.Services+int(j)] += int32(crus)
	k.RRB[b] += int32(rrbs)
}

// CheckNonNegative returns the first negative residual as an error. An
// admission only debits what fits, so a violation means the book was
// written from outside the admission path; a BS server checks after every
// round and reports the error instead of serving from a broken book.
func (k *Book) CheckNonNegative() error {
	for i, rem := range k.CRU {
		if rem < 0 {
			return fmt.Errorf("mec: book invalid: row %d service %d residual CRUs = %d", i/k.Services, i%k.Services, rem)
		}
	}
	for b, rem := range k.RRB {
		if rem < 0 {
			return fmt.Errorf("mec: book invalid: row %d residual RRBs = %d", b, rem)
		}
	}
	return nil
}
