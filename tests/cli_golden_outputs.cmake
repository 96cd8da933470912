# Byte-identity goldens for the seven demo apps: the SHA-256 of stdout of
#   dsspy run <app> --report --summary --csv-usecases --csv-instances
#       (once with --postmortem, once with --incremental: one shared digest,
#       both engines must render the same bytes);
#   dsspy advise <app> --json;
#   dsspy run <app> --json --plan --csv-patterns;
#   dsspy watch <app> --interval-ms 5 --report --csv-usecases --csv-instances
#       with its `[watch]` tick lines dropped, which must equal
#       dsspy run <app> --incremental with the same flags (ticks print
#       a summary table under --summary, so that flag is left out);
#   the file dsspy run <app> --postmortem --html FILE writes;
#   the trace files dsspy run <app> --postmortem --trace FILE writes as
#       CSV and as DST1, their dsspy convert round trips, and the stdout
#       of dsspy analyze on each (see expect_trace below).
# Every output is deterministic (fixed app seeds, thread-count-independent
# analysis), so a changed digest means a changed report, not noise.
# Run as: cmake -DDSSPY_BIN=<path-to-dsspy> -P cli_golden_outputs.cmake
if(NOT DEFINED DSSPY_BIN)
  message(FATAL_ERROR "pass -DDSSPY_BIN=<path to the dsspy binary>")
endif()

function(expect_digest digest)
  execute_process(COMMAND ${DSSPY_BIN} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_QUIET)
  string(JOIN " " shown ${ARGN})
  if(NOT code EQUAL 0)
    message(SEND_ERROR "dsspy ${shown}: exit ${code}")
    return()
  endif()
  string(SHA256 actual "${out}")
  if(NOT actual STREQUAL digest)
    message(SEND_ERROR
      "dsspy ${shown}: stdout digest ${actual}, expected ${digest}")
  endif()
endfunction()

# Like expect_digest, for `dsspy watch`: lines starting with `[watch]`
# are the live ticks, whose count depends on timing; the rest is the
# final report and must not.
function(expect_watch_digest digest)
  execute_process(COMMAND ${DSSPY_BIN} watch ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_QUIET)
  string(JOIN " " shown ${ARGN})
  if(NOT code EQUAL 0)
    message(SEND_ERROR "dsspy watch ${shown}: exit ${code}")
    return()
  endif()
  # Drop each "\n[watch] ..." run; the leading newline makes the first
  # line match too and is cut afterwards.
  string(REGEX REPLACE "\n\\[watch\\][^\n]*" "" out "\n${out}")
  string(SUBSTRING "${out}" 1 -1 out)
  string(SHA256 actual "${out}")
  if(NOT actual STREQUAL digest)
    message(SEND_ERROR
      "dsspy watch ${shown}: stdout digest ${actual}, expected ${digest}")
  endif()
endfunction()

# Like expect_digest, for a file dsspy writes: `dsspy <args>` must
# write `path`, whose bytes are hashed and then removed.
function(expect_file_digest digest path)
  file(REMOVE "${path}")
  execute_process(COMMAND ${DSSPY_BIN} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_QUIET)
  string(JOIN " " shown ${ARGN})
  if(NOT code EQUAL 0 OR NOT EXISTS "${path}")
    message(SEND_ERROR "dsspy ${shown}: exit ${code}, wrote no ${path}")
    return()
  endif()
  file(SHA256 "${path}" actual)
  file(REMOVE "${path}")
  if(NOT actual STREQUAL digest)
    message(SEND_ERROR
      "dsspy ${shown}: file digest ${actual}, expected ${digest}")
  endif()
endfunction()

# app  report+summary+csv digest  advise --json digest  json+plan+csv digest
function(expect_app app report advise json)
  foreach(engine --postmortem --incremental)
    expect_digest(${report} run ${app} ${engine}
                  --report --summary --csv-usecases --csv-instances)
  endforeach()
  expect_digest(${advise} advise ${app} --json)
  expect_digest(${json} run ${app} --json --plan --csv-patterns)
endfunction()

expect_app("Algorithmia"
  669c1dee2b476155831d0148c3dda44fbb9c972255a7ca6b9960590525cae09f
  c7a1cd4b967b47a119856a6bb71e0c8117fd0ee019dd0c2dbcbeeb10fa8acd8e
  8310527770a29342c21aa555f5c3f7cd6aa9fee05cd504ea10fd26cc6a8e79c5)
expect_app("Astrogrep"
  97c587b1453495a96723f7234456b750e8761600008d5f08772c338aa02059fa
  8adacc6a098375b67636cae6a4fbaf65cb66df7a5b46ad5ee20e623f829105cc
  46b5a31e32a72a6b9876970d98c044ef10e1a66ec3c98c82688db9cc778ef031)
expect_app("Contentfinder"
  f48ed363c2d8d4721b93c6467c27e1a609f77dd676e17bfb5330ba883db50e23
  9604e86580987c5ad2f65be89eef3d6e8e01cd5f09cca3233b3ee792b06eaa0e
  fd003039c54eda9c6ec390d60444bae42871e8273e939c68c10f0f87cf48044d)
expect_app("CPU Benchmarks"
  6888e22ec2e7c2840d82c870042450c94484faada02b258d0a591e5c647b2f85
  ed8251b58d36c76abda7d1419a49c33369cda144c9240c5f328b1fea41a15ae0
  d99479d38adcc6df20556c4649cf000f5f1507e44a7be5566ab2d4d94f6e548a)
expect_app("Gpdotnet"
  32ee5d6fac469a54c7008b4782f4b1b44d626191b39efb92c905b811f753b53f
  2da6f56c5fad0d8823c01f4213dea6224865dd90b1edcd290af3ccb96da67246
  20bd847948e61945ee703337dfab229a28263ec4945f62f156796a03fc29429b)
expect_app("Mandelbrot"
  bff2e0357bfba6a840ea7b338fa939c044524aee474ce08c9b191897d09caa34
  9f3cf1a78a8ea6856fb8ad6ceb7d28be0a44b1e787a8fcec0f2647239017ccdb
  b5b5f8cf33fd6e8089cd0b5265bec5d65133253a66331749d3e4e421499d1da5)
expect_app("WordWheelSolver"
  226dd05fb141e0fbf0aa3c9b75e0e10e2e9fe2111cc93aab20a9ed1034113702
  205de7f7d36ad476bd9f62dd990f7f79daf8593681264a23472ca278e6749dbb
  d769027368abf7fe9c36a48d9a0b57d7ac452094ff5060eb20a470071544c92b)

# app  report+csv digest, shared by `run --incremental` and `watch`
function(expect_watch app digest)
  expect_digest(${digest} run ${app} --incremental
                --report --csv-usecases --csv-instances)
  expect_watch_digest(${digest} ${app} --interval-ms 5
                      --report --csv-usecases --csv-instances)
endfunction()

expect_watch("Algorithmia"
  d2a578cc8f9fe71748a23c833569cafe428769d5e399231e9c176bccc5e6a6b3)
expect_watch("Astrogrep"
  3b6ba2078ad35486f1ffcba20727394e4a451ca5983dd14a41fa62d8d25ba9b5)
expect_watch("Contentfinder"
  4f93a15d074f8ac84e639d2498bc6da3f234e292f224535598620ed8079a7b58)
expect_watch("CPU Benchmarks"
  2b69bcd66e202880a06301669bc02c6fc138faca418f2362212989d8f3df81a9)
expect_watch("Gpdotnet"
  d41831839c1f2564b10a266546c9ec179c5674ab036cf127e9772f1272548835)
expect_watch("Mandelbrot"
  3f87b0e1a21bb6f89841da596afad896b29d6a7f0556daad51e7a91d7179af37)
expect_watch("WordWheelSolver"
  be169605ccc9c217e350b57d59e0b1faabf56f31028e2239c8f355ddedbec9f4)

# app  digest of the --html report of a post-mortem run
function(expect_html app digest)
  string(MAKE_C_IDENTIFIER "${app}" stem)
  set(path "${CMAKE_CURRENT_BINARY_DIR}/golden_${stem}.html")
  expect_file_digest(${digest} ${path}
                     run ${app} --postmortem --html ${path})
endfunction()

expect_html("Algorithmia"
  90de4e093865ef76985a76b3e923c7fb5a176355ba7e33a620f8c75e43b8cd0e)
expect_html("Astrogrep"
  4f7048abdf3c220590bdc2e8fc8fa0c3a3b35facaea6a7bfdf8db2e5d2e11a7e)
expect_html("Contentfinder"
  dd1982f65e588aef66f13f31d81daad386841c8256b6345fa9b60afd6ed07fc9)
expect_html("CPU Benchmarks"
  be073398d89183cb19eafa2112b59f4d92d7489096c82ab81d84da2dd6a33f8c)
expect_html("Gpdotnet"
  4c7a409d02565f0e5fb38d2e60493f0123bbf1e35e770228499a190923d6deae)
expect_html("Mandelbrot"
  9898f13f53e68d66aaa8207b3f2e00e983bcead55535c7c8c1df780737f08df0)
expect_html("WordWheelSolver"
  e3b5f09f3d545a6bfb27c3aedcf3b936c2cb8b96319f7f578c2b1bc6b68ea602)

# Runs `dsspy <args>` and fails the test unless it exits 0.
function(expect_ok)
  execute_process(COMMAND ${DSSPY_BIN} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_QUIET)
  if(NOT code EQUAL 0)
    string(JOIN " " shown ${ARGN})
    message(SEND_ERROR "dsspy ${shown}: exit ${code}")
  endif()
endfunction()

# The SHA-256 of a CSV trace with each event's time_ns field replaced by
# `T`: timestamps are wall-clock readings, everything else is
# deterministic.
function(expect_csv_trace_digest digest path)
  file(READ "${path}" text)
  string(REGEX REPLACE "\nE,([0-9]+),[0-9]+," "\nE,\\1,T," text "${text}")
  string(SHA256 actual "${text}")
  if(NOT actual STREQUAL digest)
    message(SEND_ERROR
      "${path}: timestamp-free digest ${actual}, expected ${digest}")
  endif()
endfunction()

function(expect_same_file a b)
  file(SHA256 "${a}" da)
  file(SHA256 "${b}" db)
  if(NOT da STREQUAL db)
    message(SEND_ERROR "${b} differs from ${a}")
  endif()
endfunction()

# app  timestamp-free CSV trace digest  report+summary+csv digest
#      json+plan+csv digest
# Records the app's trace as CSV and as DST1.  Both re-encode through
# dsspy convert to the other format and back to the very bytes written
# directly; the DST1 trace converted to CSV carries the pinned content.
# dsspy analyze prints the same bytes for either format as dsspy run
# does for the app (no output names the trace path).
function(expect_trace app csv report json)
  string(MAKE_C_IDENTIFIER "${app}" stem)
  set(base "${CMAKE_CURRENT_BINARY_DIR}/golden_${stem}")
  set(files ${base}.csv ${base}.dst ${base}_dst.csv ${base}_csv.dst
            ${base}_round.csv ${base}_round.dst)
  file(REMOVE ${files})
  expect_ok(run ${app} --postmortem --trace ${base}.csv --format=csv)
  expect_ok(run ${app} --postmortem --trace ${base}.dst --format=binary)
  expect_ok(convert ${base}.dst ${base}_dst.csv --format=csv)
  expect_ok(convert ${base}.csv ${base}_csv.dst)
  expect_ok(convert ${base}_dst.csv ${base}_round.dst --format=binary)
  expect_ok(convert ${base}_csv.dst ${base}_round.csv --format=csv)
  foreach(path IN LISTS files)
    if(NOT EXISTS "${path}")
      message(SEND_ERROR "${app}: ${path} was not written")
      file(REMOVE ${files})
      return()
    endif()
  endforeach()
  expect_csv_trace_digest(${csv} ${base}.csv)
  expect_csv_trace_digest(${csv} ${base}_dst.csv)
  expect_same_file(${base}.dst ${base}_round.dst)
  expect_same_file(${base}.csv ${base}_round.csv)
  foreach(trace ${base}.csv ${base}.dst)
    expect_digest(${report} analyze ${trace} --postmortem
                  --report --summary --csv-usecases --csv-instances)
    expect_digest(${json} analyze ${trace} --json --plan --csv-patterns)
  endforeach()
  file(REMOVE ${files})
endfunction()

expect_trace("Astrogrep"
  6f923b9cd6720ecbe0525b7ae978a477a3e9138313fddf58a15ef966fd09704b
  97c587b1453495a96723f7234456b750e8761600008d5f08772c338aa02059fa
  46b5a31e32a72a6b9876970d98c044ef10e1a66ec3c98c82688db9cc778ef031)
expect_trace("WordWheelSolver"
  1544e8cce7541f9f0d88377d21caef10412dec68dadcd26027433ed4e3fa8e4b
  226dd05fb141e0fbf0aa3c9b75e0e10e2e9fe2111cc93aab20a9ed1034113702
  d769027368abf7fe9c36a48d9a0b57d7ac452094ff5060eb20a470071544c92b)
