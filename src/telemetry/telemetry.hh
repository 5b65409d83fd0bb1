/**
 * @file
 * Instrumentation macros: the one header hot paths include.
 *
 * A TU compiles every macro to a no-op by defining
 * HEAPMD_TELEMETRY_ENABLED to 0 *before* including this header
 * (bench/telemetry_overhead compiles the same kernel both ways to
 * measure the difference); everywhere else they are compiled in.
 *
 * With telemetry compiled in:
 *  - counter/gauge/histogram macros resolve the instrument once per
 *    site (function-local static reference) and then perform one
 *    relaxed atomic update;
 *  - trace macros are gated on TraceSession::active(), a relaxed
 *    atomic load, so they cost a predictable branch until a session
 *    is started (e.g. via `heapmd ... --trace-out trace.json`).
 *
 * Instrument names follow `<subsystem>.<snake_name>`; the catalog is
 * DESIGN.md §8.
 */

#ifndef HEAPMD_TELEMETRY_TELEMETRY_HH
#define HEAPMD_TELEMETRY_TELEMETRY_HH

#include "telemetry/phase.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace_session.hh"

#if !defined(HEAPMD_TELEMETRY_ENABLED)
#define HEAPMD_TELEMETRY_ENABLED 1
#endif

#define HEAPMD_TLM_CONCAT_(a, b) a##b
#define HEAPMD_TLM_CONCAT(a, b) HEAPMD_TLM_CONCAT_(a, b)

#if HEAPMD_TELEMETRY_ENABLED

/** Add @p delta to the named process-wide counter. */
#define HEAPMD_COUNTER_ADD(name, delta) \
    do { \
        static ::heapmd::telemetry::Counter &heapmd_tlm_counter = \
            ::heapmd::telemetry::Registry::instance().counter(name); \
        heapmd_tlm_counter.add(delta); \
    } while (0)

/** Increment the named counter by one. */
#define HEAPMD_COUNTER_INC(name) HEAPMD_COUNTER_ADD(name, 1)

/** Move the named gauge by @p delta (may be negative). */
#define HEAPMD_GAUGE_ADD(name, delta) \
    do { \
        static ::heapmd::telemetry::Gauge &heapmd_tlm_gauge = \
            ::heapmd::telemetry::Registry::instance().gauge(name); \
        heapmd_tlm_gauge.add(delta); \
    } while (0)

/** Set the named gauge to @p value. */
#define HEAPMD_GAUGE_SET(name, value) \
    do { \
        static ::heapmd::telemetry::Gauge &heapmd_tlm_gauge = \
            ::heapmd::telemetry::Registry::instance().gauge(name); \
        heapmd_tlm_gauge.set(value); \
    } while (0)

/** Record @p value in the named fixed-bucket histogram. */
#define HEAPMD_HISTOGRAM_OBSERVE(name, value) \
    do { \
        static ::heapmd::telemetry::Histogram &heapmd_tlm_hist = \
            ::heapmd::telemetry::Registry::instance().histogram( \
                name); \
        heapmd_tlm_hist.observe(value); \
    } while (0)

/** Trace a complete span covering the rest of the enclosing scope. */
#define HEAPMD_TRACE_SPAN(name) \
    ::heapmd::telemetry::ScopedSpan HEAPMD_TLM_CONCAT( \
        heapmd_tlm_span_, __LINE__)(name)

/** Trace an instant event (a tick mark on the timeline). */
#define HEAPMD_TRACE_INSTANT(name) \
    do { \
        if (::heapmd::telemetry::TraceSession::active()) \
            ::heapmd::telemetry::TraceSession::instant(name, \
                                                       "heapmd"); \
    } while (0)

/** Trace a counter-track sample (graphed in Perfetto). */
#define HEAPMD_TRACE_COUNTER(name, value) \
    do { \
        if (::heapmd::telemetry::TraceSession::active()) \
            ::heapmd::telemetry::TraceSession::counter( \
                name, static_cast<double>(value)); \
    } while (0)

/**
 * Pipeline phase span covering the rest of the enclosing scope:
 * aggregates wall+CPU time into the PhaseRegistry (run-manifest
 * `phases[]`) and emits a "phase" trace event when a session is
 * recording.  Phase names follow `phase.<stage>` (DESIGN.md §13).
 */
#define HEAPMD_PHASE_SPAN(name) \
    ::heapmd::telemetry::PhaseSpan HEAPMD_TLM_CONCAT( \
        heapmd_tlm_phase_, __LINE__)(name)

/**
 * Named variant for sites that attribute processed bytes:
 * `HEAPMD_PHASE_SPAN_NAMED(span, "phase.decode"); span.addBytes(n);`
 */
#define HEAPMD_PHASE_SPAN_NAMED(var, name) \
    ::heapmd::telemetry::PhaseSpan var{name}

/**
 * Time the rest of the enclosing scope into a ns-total counter plus a
 * latency histogram.  Use as a standalone statement.
 */
#define HEAPMD_TIMED_NS(counter_name, histogram_name) \
    static ::heapmd::telemetry::Counter &HEAPMD_TLM_CONCAT( \
        heapmd_tlm_timed_c_, __LINE__) = \
        ::heapmd::telemetry::Registry::instance().counter( \
            counter_name); \
    static ::heapmd::telemetry::Histogram &HEAPMD_TLM_CONCAT( \
        heapmd_tlm_timed_h_, __LINE__) = \
        ::heapmd::telemetry::Registry::instance().histogram( \
            histogram_name); \
    ::heapmd::telemetry::ScopedNsTimer HEAPMD_TLM_CONCAT( \
        heapmd_tlm_timer_, __LINE__)( \
        HEAPMD_TLM_CONCAT(heapmd_tlm_timed_c_, __LINE__), \
        HEAPMD_TLM_CONCAT(heapmd_tlm_timed_h_, __LINE__))

#else // !HEAPMD_TELEMETRY_ENABLED

#define HEAPMD_COUNTER_ADD(name, delta) do { } while (0)
#define HEAPMD_COUNTER_INC(name) do { } while (0)
#define HEAPMD_GAUGE_ADD(name, delta) do { } while (0)
#define HEAPMD_GAUGE_SET(name, value) do { } while (0)
#define HEAPMD_HISTOGRAM_OBSERVE(name, value) do { } while (0)
#define HEAPMD_TRACE_SPAN(name) do { } while (0)
#define HEAPMD_TRACE_INSTANT(name) do { } while (0)
#define HEAPMD_TRACE_COUNTER(name, value) do { } while (0)
#define HEAPMD_PHASE_SPAN(name) do { } while (0)
#define HEAPMD_PHASE_SPAN_NAMED(var, name) \
    ::heapmd::telemetry::NullPhaseSpan var
#define HEAPMD_TIMED_NS(counter_name, histogram_name) do { } while (0)

#endif // HEAPMD_TELEMETRY_ENABLED

#endif // HEAPMD_TELEMETRY_TELEMETRY_HH
