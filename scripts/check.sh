#!/usr/bin/env bash
# Tier-1 gate, split into stages so local use and the CI jobs in
# .github/workflows/ci.yml share one source of truth.
#
# Usage: scripts/check.sh [STAGE]...
#
#   build    cargo build --release
#   test     cargo test -q
#   clippy   cargo clippy --all-targets -- -D warnings
#   fmt      cargo fmt --check
#   lint     clippy + fmt
#   docs     cargo doc --no-deps (RUSTDOCFLAGS=-D warnings) + cargo test --doc
#   bench    cargo bench --no-run (compile smoke for every bench harness)
#            + release build of the perfbench harness (BENCHMARK.json)
#   faults   cargo test --features faultinject (fault-injection matrix)
#   certify  litmus regressions + differential certify fuzz + CLI smoke
#   stream   default-vs-windowed differential + CLI --window and pack: smokes
#   serve    service suite (protocol contract + cache pins) + daemon smoke
#   all      every stage above, in CI order (the default)
set -euo pipefail
cd "$(dirname "$0")/.."

stage_build() {
  echo "== cargo build --release =="
  cargo build --release
}

stage_test() {
  echo "== cargo test -q =="
  cargo test -q
}

stage_clippy() {
  echo "== cargo clippy --all-targets -- -D warnings =="
  cargo clippy --all-targets -- -D warnings
}

stage_fmt() {
  echo "== cargo fmt --check =="
  cargo fmt --check
}

stage_docs() {
  echo "== cargo doc --no-deps (RUSTDOCFLAGS=-D warnings) =="
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

  echo "== cargo test --doc =="
  cargo test -q --doc
}

stage_bench() {
  echo "== cargo bench --no-run =="
  cargo bench --no-run

  echo "== perfbench harness build (public API it compiles against) =="
  cargo build --release --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
}

stage_faults() {
  echo "== cargo test --features faultinject (fault matrix) =="
  cargo test -q -p fence-suite --features faultinject --test faults
  cargo test -q -p fenceplace --features faultinject --lib
}

stage_certify() {
  echo "== litmus regressions + certify fuzz =="
  cargo test -q -p fence-suite --test litmus_pipeline --test certify_fuzz

  echo "== fenceplace --certify smoke (corpus, Control:x86tso) =="
  # Bounded state budget keeps the smoke fast; inconclusive/skipped
  # certifications exit 0, an unsound one exits 2 and fails the stage.
  cargo run --release --quiet --bin fenceplace -- \
    --program 'corpus:*' --config Control:x86tso \
    --certify-states 50000 --seq
}

stage_stream() {
  echo "== default-vs-windowed differential (window None vs Some(w)) =="
  cargo test -q -p fence-suite --test stream

  echo "== fenceplace --window smoke (kernels, windowed) =="
  # The windowed scheduler over the built-in kernels must complete
  # cleanly, like the default (resident) run every other stage makes;
  # any quarantined module or unsound certification exits 2 and fails
  # the stage.
  cargo run --release --quiet --bin fenceplace -- \
    --program 'kernel:*' --config Control:x86tso --config Pensieve:weak \
    --window 4

  echo "== fenceplace pack: smoke (the nine kernels' printed IR as one pack) =="
  # The pack must split back into nine modules that all parse and place:
  # exit 0 and nine `ok` modules in fleet_summary.json.
  cargo build --release --quiet --bin fenceplace --bin dump_ir
  pack_dir="$(mktemp -d)"
  trap 'rm -rf "$pack_dir"' EXIT
  ./target/release/dump_ir | sed -n '/^available kernels:/,$p' | tail -n +2 | sed 's/^  //' |
    while IFS= read -r kernel; do ./target/release/dump_ir "$kernel"; done > "$pack_dir/kernels.fir"
  ./target/release/fenceplace --program "pack:$pack_dir/kernels.fir" --window 2 \
    --config Control:x86tso --out "$pack_dir/out"
  ok_modules="$(grep -c '"status": "ok"' "$pack_dir/out/fleet_summary.json")"
  [ "$ok_modules" -eq 9 ] || { echo "pack smoke: $ok_modules of 9 modules ok" >&2; exit 1; }
  rm -rf "$pack_dir"
  trap - EXIT
}

stage_serve() {
  echo "== service suite (protocol contract, service≡CLI differential, cache pins) =="
  cargo test -q -p fence-suite --test service

  echo "== serve daemon smoke (cold corpus, warm --expect-hit corpus, shutdown) =="
  # Start a daemon, run the full corpus through it twice — the second
  # pass must be served entirely from cache — then shut it down cleanly.
  serve_dir="$(mktemp -d)"
  serve_sock="$serve_dir/fenceplace.sock"
  cargo build --release --quiet --bin fenceplace
  ./target/release/fenceplace serve --socket "$serve_sock" &
  serve_daemon=$!
  trap 'kill "$serve_daemon" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
  for _ in $(seq 1 100); do
    [ -S "$serve_sock" ] && break
    sleep 0.1
  done
  [ -S "$serve_sock" ] || { echo "daemon never bound $serve_sock" >&2; exit 1; }

  ./target/release/fenceplace client --socket "$serve_sock" \
    --program 'kernel:*' --program 'corpus:*' --config Control:x86tso
  ./target/release/fenceplace client --socket "$serve_sock" \
    --program 'kernel:*' --program 'corpus:*' --config Control:x86tso \
    --expect-hit
  ./target/release/fenceplace client --socket "$serve_sock" --shutdown
  wait "$serve_daemon"
  [ ! -e "$serve_sock" ] || { echo "daemon left its socket file behind" >&2; exit 1; }
  rm -rf "$serve_dir"
  trap - EXIT
}

run_stage() {
  case "$1" in
    build)  stage_build ;;
    test)   stage_test ;;
    clippy) stage_clippy ;;
    fmt)    stage_fmt ;;
    lint)   stage_clippy; stage_fmt ;;
    docs)   stage_docs ;;
    bench)  stage_bench ;;
    faults) stage_faults ;;
    certify) stage_certify ;;
    stream) stage_stream ;;
    serve)  stage_serve ;;
    all)    stage_build; stage_test; stage_clippy; stage_fmt; stage_docs; stage_bench; stage_faults; stage_certify; stage_stream; stage_serve ;;
    *)
      echo "unknown stage '$1' (build|test|clippy|fmt|lint|docs|bench|faults|certify|stream|serve|all)" >&2
      exit 2
      ;;
  esac
}

if [ "$#" -eq 0 ]; then
  set -- all
fi
for stage in "$@"; do
  run_stage "$stage"
done

echo "tier-1 OK ($*)"
