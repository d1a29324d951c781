package adversary

import (
	"rendezvous/internal/model"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
)

// SearchModelCached is SearchModel fronted by a result store: a
// fingerprint hit returns the stored WorstCase without touching the
// engine; a miss (including one caused by a corrupt record) runs the
// search and writes the result back. The store is best-effort — a
// failed write-back is ignored (the next caller recomputes), and a
// search that cannot be fingerprinted (one the engine would reject
// anyway, or whose explorer rejects the graph) falls through to an
// uncached SearchModel. cached reports whether the result came from
// the store.
func SearchModelCached(store *resultstore.Store, m model.Model, opts Options) (wc sim.WorstCase, cached bool, err error) {
	if store == nil {
		wc, err = SearchModel(m, opts)
		return wc, false, err
	}
	fp, ferr := m.Fingerprint()
	if ferr != nil {
		wc, err = SearchModel(m, opts)
		return wc, false, err
	}
	if wc, ok := store.Get(fp); ok {
		return wc, true, nil
	}
	wc, err = SearchModel(m, opts)
	if err != nil {
		return sim.WorstCase{}, false, err
	}
	_ = store.Put(fp, wc) // best-effort: a miss next time just recomputes
	return wc, false, nil
}
