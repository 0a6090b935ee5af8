// Command encshare-encode is the MySQLEncode equivalent (§5.1): it reads
// the client's seed and map files plus a plaintext XML document, encodes
// the document into secret-shared polynomial rows, and writes the
// resulting server database to a file that encshare-server can load.
// Only server shares end up in the output; the seed never leaves the
// client.
//
// With -shards N the node table is cut into N contiguous pre-range
// slices: one <out-base>.shard<i>.db file per shard plus a
// <out-base>.manifest.json describing the partition, ready for one
// encshare-server per shard and encshare-query -addr a,b,c. Sharding
// leaks nothing new — every share row is independently uniformly
// random, so a slice tells a shard server no more than the whole table
// tells a single server.
//
// With -replicas M each shard is emitted M times
// (<out-base>.shard<i>.r<j>.db) and the manifest lists the copies per
// shard. Replicas are byte-identical — shares are immutable and
// read-only, so a replica needs no consistency protocol, only a copy of
// the file — and give the cluster failover: encshare-server serves any
// copy, and the query side retries a dead replica's frames on its
// siblings.
//
// With -tenant NAME the manifest is written in the v2 multi-tenant
// format (one named tenant) — and is written even for a single,
// unsharded table. Merging several such manifests' tenant lists into
// one file gives encshare-server a multi-tenant serving config; each
// tenant keeps its own keys, field parameters, and quotas.
//
// Usage:
//
//	encshare-encode -seed seed.key -map tags.map -xml auction.xml -out auction.db
//	encshare-encode -shards 3 -seed seed.key -map tags.map -xml auction.xml -out auction.db
//	encshare-encode -shards 3 -replicas 2 -seed seed.key -map tags.map -xml auction.xml -out auction.db
//	encshare-encode -tenant auction -seed seed.key -map tags.map -xml auction.xml -out auction.db
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"encshare"
	"encshare/internal/cluster"
	"encshare/internal/store"
)

func main() {
	var (
		p        = flag.Uint("p", 83, "field characteristic (prime)")
		e        = flag.Uint("e", 1, "field extension degree")
		seedPath = flag.String("seed", "seed.key", "seed file")
		mapPath  = flag.String("map", "tags.map", "map file")
		xmlPath  = flag.String("xml", "", "plaintext XML document (required)")
		outPath  = flag.String("out", "encrypted.db", "encrypted database file to write")
		trieMode = flag.String("trie", "off", "text indexing: off, compressed, uncompressed")
		shards   = flag.Int("shards", 1, "split the table into N pre-range shard files plus a manifest")
		replicas = flag.Int("replicas", 1, "with -shards: emit M byte-identical copies of every shard file")
		tenant   = flag.String("tenant", "", "write the manifest in the v2 multi-tenant format under this tenant name")
	)
	flag.Parse()
	if *xmlPath == "" {
		fatal(fmt.Errorf("-xml is required"))
	}
	if *replicas < 1 {
		fatal(fmt.Errorf("-replicas must be at least 1"))
	}
	if *replicas > 1 && *shards <= 1 {
		fatal(fmt.Errorf("-replicas requires -shards"))
	}

	params := encshare.Params{P: uint32(*p), E: uint32(*e)}
	switch *trieMode {
	case "off":
	case "compressed":
		params.TrieMode = encshare.TrieCompressed
	case "uncompressed":
		params.TrieMode = encshare.TrieUncompressed
	default:
		fatal(fmt.Errorf("unknown -trie mode %q", *trieMode))
	}

	seed, err := os.ReadFile(*seedPath)
	if err != nil {
		fatal(err)
	}
	mf, err := os.Open(*mapPath)
	if err != nil {
		fatal(err)
	}
	keys, err := encshare.LoadKeys(params, seed, mf)
	mf.Close()
	if err != nil {
		fatal(err)
	}

	db, err := encshare.CreateDatabase(store.FreshDSN())
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	xf, err := os.Open(*xmlPath)
	if err != nil {
		fatal(err)
	}
	stats, err := db.EncodeXML(keys, xf)
	xf.Close()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("encoded %d nodes in %s: %d polynomial bytes + %d meta bytes\n",
		stats.Nodes, stats.Elapsed.Round(1e6), stats.PolyBytes, stats.MetaBytes)
	if *shards > 1 {
		writeShards(db, *outPath, *shards, *replicas, *tenant)
		return
	}
	out, err := os.Create(*outPath)
	if err != nil {
		fatal(err)
	}
	if err := db.DumpTo(out); err != nil {
		fatal(err)
	}
	if err := out.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("-> %s\n", *outPath)
	if *tenant != "" {
		plan, err := db.ShardPlan(1)
		if err != nil {
			fatal(err)
		}
		m := (&cluster.Manifest{Shards: []cluster.ShardInfo{{
			DB: filepath.Base(*outPath), Lo: plan[0].Lo, Hi: plan[0].Hi,
		}}}).Upgrade(*tenant)
		writeManifest(m, strings.TrimSuffix(*outPath, ".db")+".manifest.json")
	}
}

// writeShards cuts the encoded table into n contiguous slices, writing
// one standalone shard database per range (replicated reps times) and a
// manifest describing the partition.
func writeShards(db *encshare.Database, outPath string, n, reps int, tenant string) {
	base := strings.TrimSuffix(outPath, ".db")
	plan, err := db.ShardPlan(n)
	if err != nil {
		fatal(err)
	}
	m := &cluster.Manifest{}
	for i, r := range plan {
		// Manifest entries are relative to the manifest's own directory
		// (encshare-server resolves them against it), so the whole bundle
		// can be moved or -out can point into a subdirectory.
		info := cluster.ShardInfo{Lo: r.Lo, Hi: r.Hi}
		if reps == 1 {
			path := fmt.Sprintf("%s.shard%d.db", base, i)
			writeShardFile(db, r, path)
			info.DB = filepath.Base(path)
			fmt.Printf("shard %d: pre [%d, %d] -> %s\n", i, r.Lo, r.Hi, path)
		} else {
			first := fmt.Sprintf("%s.shard%d.r0.db", base, i)
			writeShardFile(db, r, first)
			info.DBs = append(info.DBs, filepath.Base(first))
			for j := 1; j < reps; j++ {
				path := fmt.Sprintf("%s.shard%d.r%d.db", base, i, j)
				copyFile(first, path)
				info.DBs = append(info.DBs, filepath.Base(path))
			}
			fmt.Printf("shard %d: pre [%d, %d] -> %d replicas of %s\n", i, r.Lo, r.Hi, reps, first)
		}
		m.Shards = append(m.Shards, info)
	}
	if tenant != "" {
		m = m.Upgrade(tenant)
	}
	writeManifest(m, base+".manifest.json")
}

func writeManifest(m *cluster.Manifest, path string) {
	if err := m.WriteFile(path); err != nil {
		fatal(err)
	}
	fmt.Printf("manifest -> %s\n", path)
}

func writeShardFile(db *encshare.Database, r encshare.ShardRange, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := db.DumpShard(f, r); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func copyFile(src, dst string) {
	in, err := os.Open(src)
	if err != nil {
		fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		fatal(err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		fatal(err)
	}
	if err := out.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "encshare-encode:", err)
	os.Exit(1)
}
