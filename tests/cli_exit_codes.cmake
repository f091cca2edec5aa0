# Exercises weavess_cli's documented process exit-code contract end to end:
#   0 success, 1 usage error, 2 I/O error, 3 corruption, 4 overload.
# Run as a CTest script test:
#   cmake -DCLI=<weavess_cli> -DWORKDIR=<scratch dir> -P cli_exit_codes.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED CLI OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DCLI=<weavess_cli path> and -DWORKDIR=<dir>")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_cli expected)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL expected)
    message(FATAL_ERROR
      "expected exit ${expected}, got '${code}' for: weavess_cli ${ARGN}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

set(prefix "${WORKDIR}/data")

# --- exit 0: generate a small workload, then a threaded eval sweep.
run_cli(0 generate --out ${prefix} --n 500 --dim 8 --queries 10 --gt 10)
run_cli(0 eval --base ${prefix}.base.fvecs --query ${prefix}.query.fvecs
        --gt ${prefix}.gt.ivecs --algo KGraph --pools 10,20 --threads 2)

# --- exit 1 (usage): bad or missing flag values.
run_cli(1 eval --base ${prefix}.base.fvecs --query ${prefix}.query.fvecs
        --algo KGraph --pools 10 --threads banana)
run_cli(1 eval --base ${prefix}.base.fvecs --query ${prefix}.query.fvecs
        --algo KGraph --pools 10 --threads 0)
run_cli(1 eval --base ${prefix}.base.fvecs --query ${prefix}.query.fvecs
        --algo KGraph --pools ten --threads 2)
run_cli(1 eval --base ${prefix}.base.fvecs --query ${prefix}.query.fvecs
        --algo NoSuchAlgorithm)
run_cli(1 eval --base ${prefix}.base.fvecs --query ${prefix}.query.fvecs
        --gt ${prefix}.gt.ivecs --algo KGraph --pools 10 --capacity banana)
run_cli(1 nosuchcommand)

# --- exit 2 (I/O): nonexistent inputs.
run_cli(2 eval --base ${WORKDIR}/missing.fvecs
        --query ${prefix}.query.fvecs --algo KGraph --threads 2)
run_cli(2 verify --graph ${WORKDIR}/missing.wvs)

# --- exit 3 (corruption): a real round-trip first, then a corrupt file.
set(graph "${WORKDIR}/graph.wvs")
run_cli(0 build --base ${prefix}.base.fvecs --algo KGraph --save ${graph})
run_cli(0 verify --graph ${graph})
# A header-sized file without the format magic must be reported as
# corruption (exit 3), not as an I/O or usage error. (Byte-flip CRC cases
# are covered in C++ by format_corruption_test; CMake strings cannot hold
# the NUL bytes a binary rewrite would need.)
set(bad "${WORKDIR}/bad_magic.wvs")
file(WRITE "${bad}" "this is not a weavess graph file, padded well past ")
file(APPEND "${bad}" "the 32-byte header so only the magic check can fail")
run_cli(3 verify --graph ${bad})

# --- replica sets: build writes N copies + a WVSSREPL1 manifest, verify
# walks the manifest recursively, eval routes through a ReplicaSet
# (docs/SERVING.md replication).
set(ridx "${WORKDIR}/ridx")
run_cli(0 build --base ${prefix}.base.fvecs --algo KGraph --save ${ridx}
        --replicas 3)
run_cli(0 verify --graph ${ridx}.replicas)
run_cli(0 eval --base ${prefix}.base.fvecs --query ${prefix}.query.fvecs
        --gt ${prefix}.gt.ivecs --algo KGraph --pools 10 --replicas 3
        --threads 2 --hedge-us 2000)
run_cli(1 build --base ${prefix}.base.fvecs --algo KGraph --replicas 2)
# A replica file that vanished is an I/O failure at its recorded CRC check.
file(REMOVE "${ridx}.replica1.wvs")
run_cli(2 verify --graph ${ridx}.replicas)
# A replica-set manifest with the right magic but mangled contents is
# corruption — it is the root of trust, so this one is fatal.
set(badrepl "${WORKDIR}/bad.replicas")
file(WRITE "${badrepl}" "WVSSREPL1 corrupted well beyond the magic bytes")
run_cli(3 verify --graph ${badrepl})

# --- exit 4 (overload): serving mode with --capacity 0 is drain mode —
# every query is deterministically shed, which the CLI reports as overload.
# A nonzero capacity on the same inputs must still succeed.
run_cli(0 eval --base ${prefix}.base.fvecs --query ${prefix}.query.fvecs
        --gt ${prefix}.gt.ivecs --algo KGraph --pools 10 --capacity 16)
run_cli(4 eval --base ${prefix}.base.fvecs --query ${prefix}.query.fvecs
        --gt ${prefix}.gt.ivecs --algo KGraph --pools 10 --capacity 0)

message(STATUS "cli_exit_codes: all exit-code checks passed")
