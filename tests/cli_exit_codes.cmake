# Black-box assertions of the CLI exit-code convention:
#   0  success
#   1  runtime failure (unknown app/program, unreadable input, failed job)
#   2  usage error (unknown command or flag, conflicting options)
# Run as: cmake -DDSSPY_BIN=<path-to-dsspy> -P cli_exit_codes.cmake
if(NOT DEFINED DSSPY_BIN)
  message(FATAL_ERROR "pass -DDSSPY_BIN=<path to the dsspy binary>")
endif()

function(expect_exit code)
  execute_process(COMMAND ${DSSPY_BIN} ${ARGN}
                  RESULT_VARIABLE actual
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT actual EQUAL ${code})
    string(JOIN " " shown ${ARGN})
    message(FATAL_ERROR
      "dsspy ${shown}: expected exit ${code}, got ${actual}")
  endif()
endfunction()

# Success paths.
expect_exit(0 list)
expect_exit(0 config)
expect_exit(0 config --threads=3)
expect_exit(0 run Mandelbrot --summary)
expect_exit(0 batch Mandelbrot WordWheelSolver --summary --threads=2)
expect_exit(0 advise Mandelbrot)
expect_exit(0 advise Mandelbrot --json)

# Usage errors: bad command, bad flag, missing operand, conflicting
# options, unsupported batch flags.
expect_exit(2)
expect_exit(2 frobnicate)
expect_exit(2 run Mandelbrot --no-such-flag)
expect_exit(2 analyze)
expect_exit(2 advise)
expect_exit(2 batch)
expect_exit(2 run Mandelbrot --threads=0)
expect_exit(2 analyze trace.csv --incremental --postmortem)
expect_exit(2 analyze trace.csv --incremental --json)
expect_exit(2 watch Mandelbrot --json)
expect_exit(2 batch Mandelbrot --trace out.csv)
expect_exit(2 batch Mandelbrot --html out.html)

# Runtime failures: unknown targets, unreadable input, one failed batch
# job, unwritable side outputs.
expect_exit(1 run NoSuchApp)
expect_exit(1 advise NoSuchTarget)
expect_exit(1 corpus NoSuchProgram)
expect_exit(1 analyze ${CMAKE_CURRENT_BINARY_DIR}/no_such_trace.dst)
expect_exit(1 convert ${CMAKE_CURRENT_BINARY_DIR}/no_such_trace.dst out.dst)
expect_exit(1 batch Mandelbrot NoSuchAnything --summary --threads=2)
expect_exit(1 run Mandelbrot --summary --trace /no-such-dir/sub/trace.csv)

# Crafted DST1 inputs (tests/data/, built in test_trace_io.cpp's
# TraceIoDecoders table): an event whose instance id is the "no instance"
# sentinel, a chunk header declaring a ~4 GiB payload, and a 2^30-1 byte
# string length.  Every analysis path rejects them as unreadable input.
foreach(crafted sentinel_instance oversized_payload oversized_string)
  set(trace ${CMAKE_CURRENT_LIST_DIR}/data/dst1_${crafted}.dst)
  expect_exit(1 analyze ${trace})
  expect_exit(1 analyze ${trace} --postmortem --json)
  expect_exit(1 analyze ${trace} --postmortem
              --html ${CMAKE_CURRENT_BINARY_DIR}/crafted.html)
endforeach()
