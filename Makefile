.PHONY: all build test help-smoke bench-smoke batch-smoke serve-smoke cache-upgrade-smoke \
  verify-smoke redteam-smoke fuzz-smoke examples-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

# Help smoke: `--help=plain` of both CLIs, and of every confmask
# subcommand listed under COMMANDS in the top-level help, must exit 0
# with nothing on stderr. cmdliner reports doc-markup errors (an illegal
# escape, say) on stderr while still printing the page and exiting 0.
HELP_SMOKE := /tmp/confmask-help-smoke
help-smoke:
	rm -rf $(HELP_SMOKE) && mkdir -p $(HELP_SMOKE)
	dune build bin/confmask_cli.exe bin/crucible_cli.exe
	./_build/default/bin/confmask_cli.exe --help=plain \
	  | sed -n '/^COMMANDS/,/^[A-Z]/p' | grep -E '^       [a-z]' \
	  | awk '{print $$1}' > $(HELP_SMOKE)/commands
	test -s $(HELP_SMOKE)/commands
	for cmd in "" $$(cat $(HELP_SMOKE)/commands); do \
	  ./_build/default/bin/confmask_cli.exe $$cmd --help=plain \
	    > /dev/null 2> $(HELP_SMOKE)/stderr || exit 1; \
	  if test -s $(HELP_SMOKE)/stderr; then \
	    echo "confmask $$cmd --help=plain wrote to stderr:"; \
	    cat $(HELP_SMOKE)/stderr; exit 1; fi; \
	done
	./_build/default/bin/crucible_cli.exe --help=plain > /dev/null 2> $(HELP_SMOKE)/stderr
	! test -s $(HELP_SMOKE)/stderr || (cat $(HELP_SMOKE)/stderr; exit 1)

# Fast end-to-end smoke: the small-network slice of every experiment,
# then one self-checked anonymization run that must show engine cache
# reuse in its telemetry (pool counters are 0 on single-core runners,
# so the grep checks engine counters only). The spf_extend grep
# proves Algorithm 1 starts from the baseline engine: the fake links
# extend its SPF state instead of a second full SPF, and the fib_patch
# grep that at least one base FIB was patched rather than rebuilt, which
# --selfcheck then shadows with a from-scratch simulation. A second run, on
# net G (FatTree04: several hosts per edge router), must show the fast
# paths live on the CLI path: delta-driven equivalence scans, a
# reachability repair round that rolled filters back and a nonzero FEC
# collapse. FatTree04 is already 6-degree anonymous, so a third run at
# k_R = 10 (8 fake links) checks the SPF extension on an OSPF-only net.
# A fourth run, on net D with two fake routers, changes the router set
# under a previous engine, so every member's base FIB takes the
# constructor's sweep, which --selfcheck shadows with a from-scratch
# simulation.
bench-smoke:
	dune exec bench/main.exe -- --fast --only table2 --only fig5 --only fig6
	rm -rf /tmp/confmask-smoke && mkdir -p /tmp/confmask-smoke
	dune exec bin/confmask_cli.exe -- generate --net A --out /tmp/confmask-smoke/orig
	dune exec bin/confmask_cli.exe -- anonymize --in /tmp/confmask-smoke/orig \
	  --out /tmp/confmask-smoke/anon --selfcheck --metrics-out /tmp/confmask-smoke/metrics.json
	grep -Eq '"engine\.spf_reuse": *[1-9]' /tmp/confmask-smoke/metrics.json
	grep -Eq '"engine\.fib_reuse": *[1-9]' /tmp/confmask-smoke/metrics.json
	grep -Eq '"engine\.spf_extend": *[1-9]' /tmp/confmask-smoke/metrics.json
	grep -Eq '"engine\.fib_patch": *[1-9]' /tmp/confmask-smoke/metrics.json
	dune exec bin/confmask_cli.exe -- generate --net G --out /tmp/confmask-smoke/g
	dune exec bin/confmask_cli.exe -- anonymize --in /tmp/confmask-smoke/g \
	  --out /tmp/confmask-smoke/g-anon --metrics-out /tmp/confmask-smoke/g-metrics.json
	grep -Eq '"equiv\.delta_routers": *[1-9]' /tmp/confmask-smoke/g-metrics.json
	grep -Eq '"anon\.filters_removed": *[1-9]' /tmp/confmask-smoke/g-metrics.json
	grep -Eq '"fec\.collapsed": *[1-9]' /tmp/confmask-smoke/g-metrics.json
	dune exec bin/confmask_cli.exe -- anonymize --in /tmp/confmask-smoke/g --kr 10 \
	  --out /tmp/confmask-smoke/g10-anon --metrics-out /tmp/confmask-smoke/g10-metrics.json
	grep -Eq '"engine\.spf_extend": *[1-9]' /tmp/confmask-smoke/g10-metrics.json
	dune exec bin/confmask_cli.exe -- generate --net D --out /tmp/confmask-smoke/d
	dune exec bin/confmask_cli.exe -- anonymize --in /tmp/confmask-smoke/d --fake-routers 2 \
	  --out /tmp/confmask-smoke/d-anon --selfcheck --metrics-out /tmp/confmask-smoke/d-metrics.json
	grep -Eq '"engine\.fib_build": *[1-9]' /tmp/confmask-smoke/d-metrics.json

# Batch driver + persistent cache smoke: run a tiny grid with a job
# limit (leaving one job pending), resume it to completion with warm
# disk-cache hits in the telemetry, then resume again and require the
# two manifests to be byte-identical.
batch-smoke:
	rm -rf /tmp/confmask-batch-smoke
	dune exec bin/confmask_cli.exe -- batch --nets A --kr 2,6 --kh 2 \
	  --limit 1 --out /tmp/confmask-batch-smoke
	dune exec bin/confmask_cli.exe -- batch --nets A --kr 2,6 --kh 2 \
	  --resume --out /tmp/confmask-batch-smoke \
	  --metrics-out /tmp/confmask-batch-smoke/metrics.json
	grep -Eq '"diskcache\.hit": *[1-9]' /tmp/confmask-batch-smoke/metrics.json
	grep -Eq '"status": *"ok"' /tmp/confmask-batch-smoke/manifest.json
	! grep -Eq '"status": *"pending"' /tmp/confmask-batch-smoke/manifest.json
	cp /tmp/confmask-batch-smoke/manifest.json /tmp/confmask-batch-smoke/manifest.first.json
	dune exec bin/confmask_cli.exe -- batch --nets A --kr 2,6 --kh 2 \
	  --resume --out /tmp/confmask-batch-smoke
	cmp /tmp/confmask-batch-smoke/manifest.first.json /tmp/confmask-batch-smoke/manifest.json

# Resident daemon smoke: a warm `confmask serve` answering the batch
# grid through the client driver must produce byte-identical anonymized
# configurations and result digests to the one-shot path, show
# persistent-cache hits and zero fresh SPF computations on a second
# pass, reject a job and a verify request with a misspelled field, answer
# a served verify with the CLI's counts, and drain cleanly on shutdown.
SERVE_SMOKE := /tmp/confmask-serve-smoke
serve-smoke:
	rm -rf $(SERVE_SMOKE) && mkdir -p $(SERVE_SMOKE)
	dune build bin/confmask_cli.exe
	./_build/default/bin/confmask_cli.exe serve --listen unix:$(SERVE_SMOKE)/s.sock \
	  --cache $(SERVE_SMOKE)/cache > $(SERVE_SMOKE)/serve.log 2>&1 & echo $$! > $(SERVE_SMOKE)/pid
	for i in $$(seq 1 50); do test -S $(SERVE_SMOKE)/s.sock && break; sleep 0.2; done
	./_build/default/bin/confmask_cli.exe batch --nets A,B --kr 2,6 --kh 2 \
	  --out $(SERVE_SMOKE)/served --server unix:$(SERVE_SMOKE)/s.sock
	./_build/default/bin/confmask_cli.exe batch --nets A,B --kr 2,6 --kh 2 \
	  --out $(SERVE_SMOKE)/oneshot --no-cache
	# Byte-identical anonymized configurations, job by job.
	for d in $(SERVE_SMOKE)/served/*/configs; do \
	  diff -r $$d $(SERVE_SMOKE)/oneshot/$$(basename $$(dirname $$d))/configs || exit 1; done
	# Identical result digests, in job order.
	grep -Eo '"digest": *"[0-9a-f]*"' $(SERVE_SMOKE)/served/manifest.json > $(SERVE_SMOKE)/served.digests
	grep -Eo '"digest": *"[0-9a-f]*"' $(SERVE_SMOKE)/oneshot/manifest.json > $(SERVE_SMOKE)/oneshot.digests
	test -s $(SERVE_SMOKE)/served.digests
	cmp $(SERVE_SMOKE)/served.digests $(SERVE_SMOKE)/oneshot.digests
	# Second served pass: every simulation must come from the resident
	# caches — the daemon's spf_full counter must not move, and the disk
	# cache must report hits on both entry kinds it keeps: whole states
	# and BGP fixpoints.
	./_build/default/bin/confmask_cli.exe call --connect unix:$(SERVE_SMOKE)/s.sock \
	  '{"op": "stats"}' | grep -o '"engine.spf_full":[0-9]*' > $(SERVE_SMOKE)/spf.before
	./_build/default/bin/confmask_cli.exe batch --nets A,B --kr 2,6 --kh 2 \
	  --out $(SERVE_SMOKE)/served2 --server unix:$(SERVE_SMOKE)/s.sock
	./_build/default/bin/confmask_cli.exe call --connect unix:$(SERVE_SMOKE)/s.sock \
	  '{"op": "stats"}' > $(SERVE_SMOKE)/stats.json
	grep -o '"engine.spf_full":[0-9]*' $(SERVE_SMOKE)/stats.json > $(SERVE_SMOKE)/spf.after
	cmp $(SERVE_SMOKE)/spf.before $(SERVE_SMOKE)/spf.after
	grep -Eq '"diskcache.hit":[1-9]' $(SERVE_SMOKE)/stats.json
	grep -Eq '"engine.state_disk":[1-9]' $(SERVE_SMOKE)/stats.json
	grep -Eq '"engine.bgp_disk":[1-9]' $(SERVE_SMOKE)/stats.json
	# A misspelled job field is a typed rejection naming it, never a job
	# run at the default k_R: the call exits 1 and nothing is written.
	./_build/default/bin/confmask_cli.exe call --connect unix:$(SERVE_SMOKE)/s.sock \
	  '{"op": "job", "id": "typo", "source": {"catalog": "A"}, "k_r": 2, "out": "$(SERVE_SMOKE)/typo"}' \
	  > $(SERVE_SMOKE)/typo.json; test $$? -eq 1
	grep -q '"error":"bad_request"' $(SERVE_SMOKE)/typo.json
	grep -q "unknown field 'k_r'" $(SERVE_SMOKE)/typo.json
	test ! -e $(SERVE_SMOKE)/typo
	# A served verify runs the CLI's front end: same counts on the smoke pair.
	./_build/default/bin/confmask_cli.exe generate --net A --out $(SERVE_SMOKE)/orig
	./_build/default/bin/confmask_cli.exe verify --orig $(SERVE_SMOKE)/orig \
	  --anon $(SERVE_SMOKE)/served/A-kr6-kh2/configs --json \
	  | grep -Eo '"(holds_both|lost)":[0-9]+' > $(SERVE_SMOKE)/verify.cli
	./_build/default/bin/confmask_cli.exe call --connect unix:$(SERVE_SMOKE)/s.sock \
	  '{"op": "verify", "orig_dir": "$(SERVE_SMOKE)/orig", "anon_dir": "$(SERVE_SMOKE)/served/A-kr6-kh2/configs"}' \
	  | grep -Eo '"(holds_both|lost)":[0-9]+' > $(SERVE_SMOKE)/verify.served
	test -s $(SERVE_SMOKE)/verify.cli
	cmp $(SERVE_SMOKE)/verify.cli $(SERVE_SMOKE)/verify.served
	# The verify op decodes through its field table too: a misspelled
	# field is rejected by name instead of being dropped.
	./_build/default/bin/confmask_cli.exe call --connect unix:$(SERVE_SMOKE)/s.sock \
	  '{"op": "verify", "orig_dir": "$(SERVE_SMOKE)/orig", "anon_dir": "$(SERVE_SMOKE)/orig", "entires": true}' \
	  > $(SERVE_SMOKE)/entires.json; test $$? -eq 1
	grep -q "unknown field 'entires'" $(SERVE_SMOKE)/entires.json
	# Graceful shutdown: drain, then exit.
	./_build/default/bin/confmask_cli.exe call --connect unix:$(SERVE_SMOKE)/s.sock '{"op": "shutdown"}'
	for i in $$(seq 1 50); do kill -0 $$(cat $(SERVE_SMOKE)/pid) 2>/dev/null || break; sleep 0.2; done
	! kill -0 $$(cat $(SERVE_SMOKE)/pid) 2>/dev/null
	grep -q 'drained, exiting' $(SERVE_SMOKE)/serve.log

# Cache-format upgrade: a directory written by the pre-codec
# (Marshal-envelope) disk cache must be detected by its INDEX magic and
# wiped wholesale — never read — and the run must still succeed and
# leave a usable new-format cache behind.
CACHE_UPGRADE := /tmp/confmask-cache-upgrade
cache-upgrade-smoke:
	rm -rf $(CACHE_UPGRADE) && mkdir -p $(CACHE_UPGRADE)/cache
	printf 'confmask-diskcache 1\nconfmask-1/ocaml-5.1.1\n' > $(CACHE_UPGRADE)/cache/INDEX
	printf 'stale marshal bytes' > $(CACHE_UPGRADE)/cache/00deadbeef00.v
	printf 'half-written entry' > $(CACHE_UPGRADE)/cache/.tmp-1234-leftover.v
	dune exec bin/confmask_cli.exe -- generate --net A --out $(CACHE_UPGRADE)/orig
	dune exec bin/confmask_cli.exe -- anonymize --in $(CACHE_UPGRADE)/orig \
	  --out $(CACHE_UPGRADE)/anon --cache $(CACHE_UPGRADE)/cache
	test ! -f $(CACHE_UPGRADE)/cache/00deadbeef00.v
	test ! -f $(CACHE_UPGRADE)/cache/.tmp-1234-leftover.v
	grep -q 'confmask-diskcache 2' $(CACHE_UPGRADE)/cache/INDEX
	# The wiped directory is live again: a second run hits it.
	dune exec bin/confmask_cli.exe -- anonymize --in $(CACHE_UPGRADE)/orig \
	  --out $(CACHE_UPGRADE)/anon2 --cache $(CACHE_UPGRADE)/cache \
	  --metrics-out $(CACHE_UPGRADE)/metrics.json
	grep -Eq '"diskcache\.hit": *[1-9]' $(CACHE_UPGRADE)/metrics.json
	# A current-format directory stamped by the previous engine (whose
	# marshaled states held one route record per FIB slot) is wiped too,
	# and the run succeeds on the fresh store.
	rm -rf $(CACHE_UPGRADE)/cache && mkdir -p $(CACHE_UPGRADE)/cache
	printf 'confmask-diskcache 2\nconfmask-engine-7/ocaml-5.1.1\n' > $(CACHE_UPGRADE)/cache/INDEX
	printf 'stale engine-7 state' > $(CACHE_UPGRADE)/cache/00deadbeef07.v
	dune exec bin/confmask_cli.exe -- anonymize --in $(CACHE_UPGRADE)/orig \
	  --out $(CACHE_UPGRADE)/anon3 --cache $(CACHE_UPGRADE)/cache
	test ! -f $(CACHE_UPGRADE)/cache/00deadbeef07.v
	grep -q 'confmask-engine-8/' $(CACHE_UPGRADE)/cache/INDEX
	diff -r $(CACHE_UPGRADE)/anon $(CACHE_UPGRADE)/anon3

# Differential policy verification smoke: anonymize net A's fig-grid
# cell through the batch driver, verify the anonymized configs against
# the original with `confmask verify` — the mined specification must
# transfer (nonzero holds_both, nothing lost, so exit code 0) — and the
# per-cell result.json must embed the verification record and the
# redteam audit, which a resumed batch reproduces byte-identically.
VERIFY_SMOKE := /tmp/confmask-verify-smoke
verify-smoke:
	rm -rf $(VERIFY_SMOKE) && mkdir -p $(VERIFY_SMOKE)
	dune exec bin/confmask_cli.exe -- generate --net A --out $(VERIFY_SMOKE)/orig
	dune exec bin/confmask_cli.exe -- batch --nets A --kr 6 --kh 2 \
	  --out $(VERIFY_SMOKE)/batch
	grep -q '"verification"' $(VERIFY_SMOKE)/batch/A-kr6-kh2/result.json
	grep -q '"redteam"' $(VERIFY_SMOKE)/batch/A-kr6-kh2/result.json
	dune exec bin/confmask_cli.exe -- verify --orig $(VERIFY_SMOKE)/orig \
	  --anon $(VERIFY_SMOKE)/batch/A-kr6-kh2/configs --json > $(VERIFY_SMOKE)/verify.json
	grep -Eq '"holds_both": *[1-9]' $(VERIFY_SMOKE)/verify.json
	! grep -Eq '"verdict": *"lost"' $(VERIFY_SMOKE)/verify.json
	# A policy from a real host to a fake one (a config of the cell that
	# the original lacks) is fake_only: the mined set never names it, so
	# this reads the anonymized plane's per-pair view of a fake host.
	cd $(VERIFY_SMOKE) && ls orig | sed 's/\.cfg$$//' > real \
	  && ls batch/A-kr6-kh2/configs | sed 's/\.cfg$$//' | grep -vxFf real > fake \
	  && echo "reach($$(grep -l default-gateway orig/*.cfg | head -n 1 | xargs basename -s .cfg), $$(head -n 1 fake))" \
	  > fake.policies
	dune exec bin/confmask_cli.exe -- verify --orig $(VERIFY_SMOKE)/orig \
	  --anon $(VERIFY_SMOKE)/batch/A-kr6-kh2/configs --json \
	  --policies $(VERIFY_SMOKE)/fake.policies > $(VERIFY_SMOKE)/fake.json
	grep -Eq '"verdict": *"fake_only"' $(VERIFY_SMOKE)/fake.json
	# Resuming the finished batch must reproduce the manifest —
	# verification record included — byte for byte.
	cp $(VERIFY_SMOKE)/batch/manifest.json $(VERIFY_SMOKE)/manifest.first.json
	dune exec bin/confmask_cli.exe -- batch --nets A --kr 6 --kh 2 \
	  --resume --out $(VERIFY_SMOKE)/batch
	cmp $(VERIFY_SMOKE)/manifest.first.json $(VERIFY_SMOKE)/batch/manifest.json

# Red-team smoke: the brute force must recover a planted legacy key
# (0x863b891f4c0abd4f is Pan.key_of_int 7) and come up empty against a
# full-width 64-bit hex key. A key shorter than 16 hex digits is an
# input error (exit 1). A key alone turns the scrub on, so no original
# device name is written, and the PII run's config utility must equal
# the plain run's.
REDTEAM_SMOKE := /tmp/confmask-redteam-smoke
redteam-smoke:
	rm -rf $(REDTEAM_SMOKE) && mkdir -p $(REDTEAM_SMOKE)
	dune exec bin/confmask_cli.exe -- generate --net A --out $(REDTEAM_SMOKE)/orig
	dune exec bin/confmask_cli.exe -- anonymize --in $(REDTEAM_SMOKE)/orig \
	  --out $(REDTEAM_SMOKE)/weak --pii-key 0x863b891f4c0abd4f
	dune exec bin/confmask_cli.exe -- redteam --orig $(REDTEAM_SMOKE)/orig \
	  --anon $(REDTEAM_SMOKE)/weak --attacks key_bruteforce \
	  --key 0x863b891f4c0abd4f --key-range 64 --json > $(REDTEAM_SMOKE)/weak.json
	grep -q '"attack":"key_bruteforce"' $(REDTEAM_SMOKE)/weak.json
	grep -q '"recall":1' $(REDTEAM_SMOKE)/weak.json
	grep -q '"recovered_seed":7' $(REDTEAM_SMOKE)/weak.json
	dune exec bin/confmask_cli.exe -- anonymize --in $(REDTEAM_SMOKE)/orig \
	  --out $(REDTEAM_SMOKE)/short --pii-key 7 2> $(REDTEAM_SMOKE)/short.err; \
	  test $$? -eq 1
	grep -q '16 hex digits' $(REDTEAM_SMOKE)/short.err
	dune exec bin/confmask_cli.exe -- anonymize --in $(REDTEAM_SMOKE)/orig \
	  --out $(REDTEAM_SMOKE)/strong --pii-key 0xdeadbeefcafef00d \
	  > $(REDTEAM_SMOKE)/strong.out
	test -s $(REDTEAM_SMOKE)/strong/confmask-secrets.txt
	test ! -e $(REDTEAM_SMOKE)/strong/a1.cfg
	# The scrub renames every device; U_C must still pair each shared
	# file with its original and read as it does without the scrub.
	dune exec bin/confmask_cli.exe -- anonymize --in $(REDTEAM_SMOKE)/orig \
	  --out $(REDTEAM_SMOKE)/plain > $(REDTEAM_SMOKE)/plain.out
	grep 'U_C' $(REDTEAM_SMOKE)/strong.out > $(REDTEAM_SMOKE)/strong.uc
	grep 'U_C' $(REDTEAM_SMOKE)/plain.out > $(REDTEAM_SMOKE)/plain.uc
	cmp $(REDTEAM_SMOKE)/strong.uc $(REDTEAM_SMOKE)/plain.uc
	dune exec bin/confmask_cli.exe -- redteam --orig $(REDTEAM_SMOKE)/orig \
	  --anon $(REDTEAM_SMOKE)/strong --attacks key_bruteforce \
	  --key 0xdeadbeefcafef00d --key-range 4096 --json > $(REDTEAM_SMOKE)/strong.json
	grep -q '"recall":0' $(REDTEAM_SMOKE)/strong.json
	grep -q '"claims":0' $(REDTEAM_SMOKE)/strong.json

# Randomized differential/metamorphic fuzz of the whole pipeline: 200
# generated networks against every crucible oracle; failures are shrunk
# and written to crucible-failures/ for adoption into test/corpus/.
fuzz-smoke:
	dune exec bin/crucible_cli.exe -- --seed 0 --cases 200 \
	  --minimize --corpus-dir crucible-failures

# The five examples must run to completion, and the Appendix B audit
# must find Theorem B.7 holding on its run.
EXAMPLES_SMOKE := /tmp/confmask-examples-smoke
examples-smoke:
	rm -rf $(EXAMPLES_SMOKE) && mkdir -p $(EXAMPLES_SMOKE)
	dune build ./examples
	for ex in quickstart troubleshooting bgp_enterprise fattree_scale properties_audit; do \
	  ./_build/default/examples/$$ex.exe > $(EXAMPLES_SMOKE)/$$ex.out || exit 1; done
	grep -q 'Theorem B.7 holds on this run: true' $(EXAMPLES_SMOKE)/properties_audit.out

check: build test help-smoke examples-smoke bench-smoke batch-smoke serve-smoke cache-upgrade-smoke \
  verify-smoke redteam-smoke fuzz-smoke

clean:
	dune clean
