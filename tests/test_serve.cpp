// Serve-layer tests (DESIGN.md §12, docs/SERVE.md): the DSRV wire
// protocol, the multi-tenant daemon, and both clients.
//
// The load-bearing property is report parity: a trace pushed through the
// daemon must produce a report byte-identical to offline incremental
// analysis of the same bytes — including when the stream is cut mid-way
// (the aborted tenant's report equals offline analysis of the received
// prefix, with the truncation visible as orphan events, never as a crash
// or a wrong verdict).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/export.hpp"
#include "core/incremental.hpp"
#include "core/report.hpp"
#include "json_check.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "pipeline/run_plan.hpp"
#include "pipeline/serve_plan.hpp"
#include "runtime/trace_io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/socket.hpp"
#include "serve/wire.hpp"
#include "support/table.hpp"

namespace {

using namespace dsspy;
using namespace std::chrono_literals;

// --- trace generation ---------------------------------------------------

/// Deterministic CSV trace: `n_instances` lists, each with an insert
/// phase then a read sweep (enough structure for the detectors to flag
/// some instances).  `seed` varies sizes so different tenants produce
/// different reports.
std::string make_trace(unsigned n_instances, unsigned events_per,
                       unsigned seed) {
    std::ostringstream os;
    for (unsigned i = 0; i < n_instances; ++i)
        os << "I," << i << ",0,List<Int32>,ServeTest,Method" << i << ','
           << (i + 1) << ",0\n";
    std::uint64_t seq = 0;
    for (unsigned i = 0; i < n_instances; ++i) {
        const unsigned events = events_per + (seed + i) % 7;
        const unsigned inserts = events / 2;
        unsigned size = 0;
        for (unsigned e = 0; e < events; ++e) {
            const bool insert = e < inserts;
            const unsigned op = insert ? 2u : 0u;  // Add : Get
            const unsigned pos = insert ? size : (e - inserts) % (size + 1);
            if (insert) ++size;
            os << "E," << seq << ',' << (seq * 10) << ',' << i << ',' << op
               << ',' << pos << ',' << size << ",1\n";
            ++seq;
        }
    }
    return os.str();
}

// --- offline reference --------------------------------------------------

class OfflineSink final : public runtime::TraceSink {
public:
    explicit OfflineSink(core::IncrementalAnalyzer& analyzer)
        : analyzer_(analyzer) {}
    void on_instance(const runtime::InstanceInfo& info) override {
        instances.push_back(info);
        analyzer_.declare_instance(info);
    }
    void on_events(std::span<const runtime::AccessEvent> events) override {
        analyzer_.fold(events);
    }
    std::vector<runtime::InstanceInfo> instances;

private:
    core::IncrementalAnalyzer& analyzer_;
};

/// What `dsspy analyze <trace> --report` prints for this CSV: the
/// use-case report plus the search-space reduction footer the CLI's
/// report sink appends.
std::string render_report(const core::AnalysisResult& report) {
    std::ostringstream os;
    core::print_use_case_report(os, report);
    os << "Search space reduction: "
       << support::Table::pct(report.search_space_reduction()) << " ("
       << report.flagged_instances() << " of "
       << report.list_array_instances()
       << " list/array instances flagged)\n";
    return os.str();
}

std::string offline_report(const std::string& csv) {
    core::IncrementalAnalyzer analyzer;
    OfflineSink sink(analyzer);
    std::istringstream is(csv);
    runtime::read_trace_stream(is, sink);
    return render_report(analyzer.finish(sink.instances));
}

/// What `dsspy advise <trace>` prints for this CSV: the structured
/// advice document.
std::string offline_advice(const std::string& csv) {
    core::IncrementalAnalyzer analyzer;
    OfflineSink sink(analyzer);
    std::istringstream is(csv);
    runtime::read_trace_stream(is, sink);
    std::ostringstream os;
    core::write_advice_json(os, analyzer.finish(sink.instances));
    return os.str();
}

// --- daemon fixture -----------------------------------------------------

serve::DaemonOptions loopback_options() {
    serve::DaemonOptions options;
    options.listen = "tcp://127.0.0.1:0";
    options.client_timeout_ms = 5000;
    return options;
}

std::string write_temp_trace(const std::string& name,
                             const std::string& body) {
    const std::string path =
        testing::TempDir() + "serve_" + name + ".csv";
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << body;
    return path;
}

/// Poll until the tenant reaches a terminal state (a closed socket is
/// seen by the daemon thread asynchronously).
serve::TenantSummary wait_terminal(const serve::Daemon& daemon,
                                   std::uint32_t id) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    for (;;) {
        for (const serve::TenantSummary& s : daemon.tenants())
            if (s.id == id && s.state != serve::TenantState::Streaming)
                return s;
        if (std::chrono::steady_clock::now() > deadline) {
            ADD_FAILURE() << "tenant " << id << " never finalized";
            return {};
        }
        std::this_thread::sleep_for(10ms);
    }
}

// --- wire / address tests ----------------------------------------------

TEST(ServeWire, AddressParsing) {
    std::string error;
    const auto unix_addr = serve::parse_address("unix:/tmp/x.sock", &error);
    ASSERT_TRUE(unix_addr.has_value());
    EXPECT_EQ(unix_addr->kind, serve::Address::Kind::Unix);
    EXPECT_EQ(unix_addr->path, "/tmp/x.sock");
    EXPECT_EQ(unix_addr->to_string(), "unix:/tmp/x.sock");

    const auto tcp = serve::parse_address("tcp://127.0.0.1:9909", &error);
    ASSERT_TRUE(tcp.has_value());
    EXPECT_EQ(tcp->kind, serve::Address::Kind::Tcp);
    EXPECT_EQ(tcp->host, "127.0.0.1");
    EXPECT_EQ(tcp->port, 9909u);

    EXPECT_FALSE(serve::parse_address("udp://x:1", &error).has_value());
    EXPECT_FALSE(serve::parse_address("unix:", &error).has_value());
    EXPECT_FALSE(serve::parse_address("tcp://h:notaport", &error)
                     .has_value());
    EXPECT_FALSE(serve::parse_address("tcp://h:70000", &error).has_value());
    EXPECT_FALSE(error.empty());
}

TEST(ServeWire, EncodingRoundTrips) {
    const std::string hello = serve::wire::encode_hello("alpha");
    ASSERT_EQ(hello.substr(0, 4), serve::wire::kHelloMagic);
    const auto* bytes =
        reinterpret_cast<const unsigned char*>(hello.data());
    EXPECT_EQ(serve::wire::get_u16(bytes + 4), serve::wire::kVersion);
    EXPECT_EQ(serve::wire::get_u16(bytes + 8), 5u);
    EXPECT_EQ(hello.substr(10), "alpha");

    const std::string accept = serve::wire::encode_accept(0xdeadbeef);
    const auto* abytes =
        reinterpret_cast<const unsigned char*>(accept.data());
    EXPECT_EQ(accept.substr(0, 4), serve::wire::kAcceptMagic);
    EXPECT_EQ(serve::wire::get_u32(abytes + 6), 0xdeadbeefu);

    const std::string header =
        serve::wire::encode_frame_header(serve::wire::kFrameTrace, 70000);
    ASSERT_EQ(header.size(), serve::wire::kFrameHeaderBytes);
    EXPECT_EQ(header[0], serve::wire::kFrameTrace);
    EXPECT_EQ(serve::wire::get_u32(reinterpret_cast<const unsigned char*>(
                                       header.data()) +
                                   1),
              70000u);
}

// --- end-to-end parity --------------------------------------------------

TEST(ServeDaemon, PushedReportIsByteIdenticalToOffline) {
    serve::Daemon daemon(loopback_options());
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const std::string csv = make_trace(6, 400, 3);
    const std::string path = write_temp_trace("parity", csv);
    const serve::ClientResult result =
        serve::push_trace_file(daemon.address(), path, "parity");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_NE(result.summary.find("finished"), std::string::npos);

    const auto report = daemon.tenant_report(result.tenant_id);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(*report, offline_report(csv));

    const serve::TenantSummary s = wait_terminal(daemon, result.tenant_id);
    EXPECT_EQ(s.state, serve::TenantState::Finished);
    EXPECT_EQ(s.orphan_events, 0u);
    EXPECT_EQ(s.bytes, csv.size());
    daemon.stop();
}

TEST(ServeDaemon, ThirtyTwoConcurrentTenants) {
    serve::DaemonOptions options = loopback_options();
    options.max_tenants = 64;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    constexpr unsigned kTenants = 32;
    std::vector<std::string> traces(kTenants);
    std::vector<serve::ClientResult> results(kTenants);
    for (unsigned t = 0; t < kTenants; ++t)
        traces[t] = make_trace(2 + t % 4, 120, t);

    std::vector<std::thread> clients;
    clients.reserve(kTenants);
    for (unsigned t = 0; t < kTenants; ++t)
        clients.emplace_back([&, t] {
            const std::string path = write_temp_trace(
                "tenant" + std::to_string(t), traces[t]);
            results[t] = serve::push_trace_file(
                daemon.address(), path, "tenant" + std::to_string(t),
                /*frame_bytes=*/512 + t * 37);
        });
    for (std::thread& th : clients) th.join();

    for (unsigned t = 0; t < kTenants; ++t) {
        ASSERT_TRUE(results[t].ok) << "tenant " << t << ": "
                                   << results[t].error;
        const auto report = daemon.tenant_report(results[t].tenant_id);
        ASSERT_TRUE(report.has_value());
        EXPECT_EQ(*report, offline_report(traces[t]))
            << "tenant " << t << " diverged from offline analysis";
    }
    EXPECT_EQ(daemon.tenants().size(), kTenants);
    daemon.stop();
}

TEST(ServeDaemon, LiveSocketSinkMatchesOffline) {
    serve::Daemon daemon(loopback_options());
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // Stream the same records through a SocketTraceSink (framed CSV on
    // the fly) and through the offline path.
    const std::string csv = make_trace(3, 300, 11);
    core::IncrementalAnalyzer offline;
    OfflineSink reference(offline);
    serve::SocketTraceSink sink(daemon.address(), "live",
                                /*flush_bytes=*/512);
    ASSERT_TRUE(sink.ok()) << sink.error();
    class Tee final : public runtime::TraceSink {
    public:
        Tee(runtime::TraceSink& a, runtime::TraceSink& b) : a_(a), b_(b) {}
        void on_instance(const runtime::InstanceInfo& info) override {
            a_.on_instance(info);
            b_.on_instance(info);
        }
        void on_events(
            std::span<const runtime::AccessEvent> events) override {
            a_.on_events(events);
            b_.on_events(events);
        }

    private:
        runtime::TraceSink& a_;
        runtime::TraceSink& b_;
    } tee(reference, sink);
    std::istringstream is(csv);
    runtime::read_trace_stream(is, tee);

    const serve::ClientResult result = sink.finish();
    ASSERT_TRUE(result.ok) << result.error;
    const std::string ref_text =
        render_report(offline.finish(reference.instances));
    const auto daemon_report = daemon.tenant_report(result.tenant_id);
    ASSERT_TRUE(daemon_report.has_value());
    EXPECT_EQ(*daemon_report, ref_text);
    daemon.stop();
}

// --- crash recovery -----------------------------------------------------

TEST(ServeDaemon, ClientCrashYieldsAbortedTenantWithOrphanCount) {
    serve::Daemon daemon(loopback_options());
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // One declared instance with 5 events, plus 10 events on an instance
    // that never gets an 'I' record — then the client "crashes" (socket
    // closed, no end-of-stream frame).
    std::ostringstream os;
    os << "I,0,0,List<Int32>,Crash,Test,1,0\n";
    for (unsigned e = 0; e < 5; ++e)
        os << "E," << e << ',' << e * 10 << ",0,2," << e << ',' << e + 1
           << ",1\n";
    for (unsigned e = 5; e < 15; ++e)
        os << "E," << e << ',' << e * 10 << ",99,0,0,1,1\n";
    const std::string partial = os.str();

    std::uint32_t tenant_id = 0;
    serve::Socket sock = serve::open_tenant_stream(
        daemon.address(), "crash", &tenant_id, &error);
    ASSERT_TRUE(sock.valid()) << error;
    ASSERT_TRUE(sock.write_all(serve::wire::encode_frame_header(
        serve::wire::kFrameTrace,
        static_cast<std::uint32_t>(partial.size()))));
    ASSERT_TRUE(sock.write_all(partial));
    sock.close();  // crash: no 'E' frame, no clean shutdown

    const serve::TenantSummary s = wait_terminal(daemon, tenant_id);
    EXPECT_EQ(s.state, serve::TenantState::Aborted);
    EXPECT_NE(s.error.find("disconnected"), std::string::npos) << s.error;
    EXPECT_EQ(s.events, 15u);
    EXPECT_EQ(s.instances, 1u);
    EXPECT_EQ(s.orphan_events, 10u);

    // The partial report still equals offline analysis of the received
    // prefix: crash degrades to a finalized partial report.
    const auto report = daemon.tenant_report(tenant_id);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(*report, offline_report(partial));
    daemon.stop();
}

// --- failure isolation & bounds -----------------------------------------

TEST(ServeDaemon, MalformedFrameClosesOnlyThatConnection) {
    serve::Daemon daemon(loopback_options());
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // Healthy tenant streams concurrently with a misbehaving one.
    const std::string csv = make_trace(2, 200, 5);
    std::uint32_t bad_id = 0;
    serve::Socket bad = serve::open_tenant_stream(daemon.address(), "bad",
                                                  &bad_id, &error);
    ASSERT_TRUE(bad.valid()) << error;
    ASSERT_TRUE(bad.write_all(
        serve::wire::encode_frame_header('Z', 12345)));  // unknown type

    const std::string path = write_temp_trace("isolated", csv);
    const serve::ClientResult good =
        serve::push_trace_file(daemon.address(), path, "good");
    ASSERT_TRUE(good.ok) << good.error;
    const auto report = daemon.tenant_report(good.tenant_id);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(*report, offline_report(csv));

    const serve::TenantSummary s = wait_terminal(daemon, bad_id);
    EXPECT_EQ(s.state, serve::TenantState::Aborted);
    EXPECT_NE(s.error.find("malformed frame"), std::string::npos)
        << s.error;
    EXPECT_GE(daemon.stats().malformed, 1u);
    daemon.stop();
}

TEST(ServeDaemon, OversizedFrameIsRejected) {
    serve::DaemonOptions options = loopback_options();
    options.max_frame_bytes = 1024;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    std::uint32_t id = 0;
    serve::Socket sock =
        serve::open_tenant_stream(daemon.address(), "big", &id, &error);
    ASSERT_TRUE(sock.valid()) << error;
    ASSERT_TRUE(sock.write_all(serve::wire::encode_frame_header(
        serve::wire::kFrameTrace, 1u << 20)));

    const serve::TenantSummary s = wait_terminal(daemon, id);
    EXPECT_EQ(s.state, serve::TenantState::Aborted);
    EXPECT_NE(s.error.find("max-frame-bytes"), std::string::npos)
        << s.error;
    daemon.stop();
}

TEST(ServeDaemon, TenantInstanceCapAbortsTenantNotDaemon) {
    serve::DaemonOptions options = loopback_options();
    options.max_tenant_instances = 3;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const std::string path =
        write_temp_trace("cap", make_trace(5, 50, 1));
    const serve::ClientResult result =
        serve::push_trace_file(daemon.address(), path, "cap");
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("instance limit"), std::string::npos)
        << result.error;

    // The daemon survives and still accepts new work.
    const std::string ok_csv = make_trace(2, 50, 2);
    const std::string ok_path = write_temp_trace("cap_ok", ok_csv);
    const serve::ClientResult ok =
        serve::push_trace_file(daemon.address(), ok_path, "cap-ok");
    ASSERT_TRUE(ok.ok) << ok.error;
    daemon.stop();
}

TEST(ServeDaemon, TenantLimitRejectsWithReason) {
    serve::DaemonOptions options = loopback_options();
    options.max_tenants = 1;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    std::uint32_t first_id = 0;
    serve::Socket first = serve::open_tenant_stream(
        daemon.address(), "holder", &first_id, &error);
    ASSERT_TRUE(first.valid()) << error;  // holds the only slot open

    std::uint32_t second_id = 0;
    std::string second_error;
    serve::Socket second = serve::open_tenant_stream(
        daemon.address(), "overflow", &second_id, &second_error);
    EXPECT_FALSE(second.valid());
    EXPECT_NE(second_error.find("tenant limit"), std::string::npos)
        << second_error;
    EXPECT_GE(daemon.stats().rejected, 1u);
    daemon.stop();
}

// --- status endpoints ---------------------------------------------------

/// Minimal HTTP GET over the serve socket; returns the full response.
std::string http_get(const serve::Address& address,
                     const std::string& target) {
    std::string error;
    serve::Socket sock = serve::connect_to(address, &error);
    if (!sock.valid()) return "connect failed: " + error;
    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: dsspy\r\n\r\n";
    if (!sock.write_all(request)) return "write failed";
    std::string response;
    char buf[4096];
    for (;;) {
        std::size_t got = 0;
        if (sock.read_some(buf, sizeof(buf), &got) != serve::IoStatus::Ok)
            break;
        response.append(buf, got);
    }
    return response;
}

TEST(ServeDaemon, HttpStatusEndpoints) {
    serve::Daemon daemon(loopback_options());
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const std::string csv = make_trace(3, 150, 9);
    const std::string path = write_temp_trace("http", csv);
    const serve::ClientResult result =
        serve::push_trace_file(daemon.address(), path, "http-tenant");
    ASSERT_TRUE(result.ok) << result.error;

    const std::string health = http_get(daemon.address(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
    EXPECT_NE(health.find("ok"), std::string::npos);

    const std::string tenants = http_get(daemon.address(), "/tenants");
    EXPECT_NE(tenants.find("\"name\": \"http-tenant\""), std::string::npos)
        << tenants;
    EXPECT_NE(tenants.find("\"state\": \"finished\""), std::string::npos);

    const std::string report = http_get(
        daemon.address(),
        "/tenants/" + std::to_string(result.tenant_id) + "/report");
    const std::string offline = offline_report(csv);
    EXPECT_NE(report.find(offline), std::string::npos)
        << "report endpoint body diverged";

    const std::string metrics = http_get(daemon.address(), "/metrics");
    EXPECT_NE(metrics.find("dsspy_serve_connections"), std::string::npos);
    EXPECT_NE(
        metrics.find("dsspy_serve_tenant_events{tenant=\"" +
                     std::to_string(result.tenant_id) +
                     "\",name=\"http-tenant\",state=\"finished\"}"),
        std::string::npos)
        << metrics;

    const std::string missing = http_get(daemon.address(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);
    daemon.stop();
}

TEST(ServeDaemon, AdviceEndpointMatchesOfflineAdvise) {
    serve::Daemon daemon(loopback_options());
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const std::string csv = make_trace(3, 150, 9);
    const std::string path = write_temp_trace("advice", csv);
    const serve::ClientResult result =
        serve::push_trace_file(daemon.address(), path, "advice-tenant");
    ASSERT_TRUE(result.ok) << result.error;

    const std::string response = http_get(
        daemon.address(),
        "/tenants/" + std::to_string(result.tenant_id) + "/advice");
    EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
    EXPECT_NE(response.find("application/json"), std::string::npos);
    const std::size_t sep = response.find("\r\n\r\n");
    ASSERT_NE(sep, std::string::npos);
    const std::string body = response.substr(sep + 4);
    EXPECT_TRUE(dsspy_test::json_valid(body)) << body.substr(0, 400);
    EXPECT_EQ(body, offline_advice(csv))
        << "advice endpoint body diverged from offline dsspy advise";

    const std::string missing =
        http_get(daemon.address(), "/tenants/99999/advice");
    EXPECT_NE(missing.find("404"), std::string::npos);
    daemon.stop();
}

/// The response body (everything after the blank line); whole response
/// when no header separator is found.
std::string http_body(const std::string& response) {
    const std::size_t sep = response.find("\r\n\r\n");
    return sep == std::string::npos ? response : response.substr(sep + 4);
}

/// Quotes that start or end a label value (i.e. not preceded by an
/// escaping backslash); an even count means no value broke out.
std::size_t count_unescaped_quotes(const std::string& line) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '\\') {
            ++i;  // skip the escaped character
        } else if (line[i] == '"') {
            ++count;
        }
    }
    return count;
}

/// Open a tenant stream under `name`, end it cleanly, and wait for the
/// finished state.  Returns the tenant id (0 on failure).
std::uint32_t finish_named_tenant(const serve::Daemon& daemon,
                                  const std::string& name) {
    std::string error;
    std::uint32_t id = 0;
    serve::Socket sock =
        serve::open_tenant_stream(daemon.address(), name, &id, &error);
    EXPECT_TRUE(sock.valid()) << error;
    if (!sock.valid()) return 0;
    EXPECT_TRUE(sock.write_all(
        serve::wire::encode_frame_header(serve::wire::kFrameEnd, 0)));
    wait_terminal(daemon, id);
    return id;
}

TEST(ServeDaemon, HostileTenantNamesAreEscapedInJsonAndMetrics) {
    serve::Daemon daemon(loopback_options());
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // Quotes, backslashes, a newline, braces, and multi-byte UTF-8 — a
    // tenant name is client-controlled and must not be able to corrupt
    // either exposition document.
    const std::string hostile = "evil\"name\\with\nnewline{}";
    const std::string utf8 = "tenant-\xc3\xbc";
    const std::uint32_t hostile_id = finish_named_tenant(daemon, hostile);
    const std::uint32_t utf8_id = finish_named_tenant(daemon, utf8);
    ASSERT_NE(hostile_id, 0u);
    ASSERT_NE(utf8_id, 0u);

    // /tenants stays parseable JSON with the name escaped, not raw.
    const std::string tenants =
        http_body(http_get(daemon.address(), "/tenants"));
    EXPECT_TRUE(dsspy_test::json_valid(tenants)) << tenants;
    EXPECT_NE(
        tenants.find("\"name\": \"evil\\\"name\\\\with\\u000anewline{}\""),
        std::string::npos)
        << tenants;
    EXPECT_NE(tenants.find("\"name\": \"" + utf8 + "\""),
              std::string::npos);

    // /metrics escapes the label value per the Prometheus exposition
    // format (backslash, quote, newline) and keeps one sample per line.
    const std::string metrics =
        http_body(http_get(daemon.address(), "/metrics"));
    EXPECT_NE(
        metrics.find("dsspy_serve_tenant_events{tenant=\"" +
                     std::to_string(hostile_id) +
                     "\",name=\"evil\\\"name\\\\with\\nnewline{}\","
                     "state=\"finished\"}"),
        std::string::npos)
        << metrics;
    std::istringstream lines(metrics);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find("{tenant=") == std::string::npos) continue;
        // Well-formed sample: an even number of quotes, the brace block
        // closed, and a numeric value after it — a raw newline or quote
        // in the name would have split or unbalanced the line.
        EXPECT_EQ(count_unescaped_quotes(line) % 2, 0u) << line;
        const std::size_t close = line.rfind("} ");
        ASSERT_NE(close, std::string::npos) << line;
        for (std::size_t i = close + 2; i < line.size(); ++i)
            EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i])))
                << line;
    }
    daemon.stop();
}

TEST(ServeExport, PrometheusSampleSanitizesHostileLabelNames) {
    // Label names have no escape syntax in the exposition format, so the
    // writer must sanitize them: invalid characters map to '_', a
    // leading digit gets a '_' prefix, and empty names drop the label.
    std::ostringstream os;
    const std::array<obs::PromLabel, 4> labels = {{
        {"bad name\"}\n", "v1"},
        {"9lead", "v2"},
        {"", "dropped"},
        {"ok_name", "v3"},
    }};
    obs::write_prometheus_sample(os, "serve.test_series", labels, 7);
    EXPECT_EQ(os.str(),
              "dsspy_serve_test_series{bad_name___=\"v1\",_9lead=\"v2\","
              "ok_name=\"v3\"} 7\n");

    // All labels dropped: no empty brace block.
    std::ostringstream bare;
    const std::array<obs::PromLabel, 1> none = {{{"", "x"}}};
    obs::write_prometheus_sample(bare, "serve.test_series", none, 1);
    EXPECT_EQ(bare.str(), "dsspy_serve_test_series 1\n");
}

TEST(ServeDaemon, TenantTraceEndpointServesPerTenantTimelines) {
    serve::Daemon daemon(loopback_options());
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    // start() turns the global span recorder on so live timelines work
    // without any CLI flag.
    EXPECT_TRUE(obs::trace_enabled());

    const std::string csv_a = make_trace(3, 200, 21);
    const std::string csv_b = make_trace(2, 150, 22);
    const serve::ClientResult a = serve::push_trace_file(
        daemon.address(), write_temp_trace("trace_a", csv_a), "trace-a");
    const serve::ClientResult b = serve::push_trace_file(
        daemon.address(), write_temp_trace("trace_b", csv_b), "trace-b");
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;

    const std::string trace_a = http_get(
        daemon.address(),
        "/tenants/" + std::to_string(a.tenant_id) + "/trace");
    EXPECT_NE(trace_a.find("200 OK"), std::string::npos) << trace_a;
    const std::string body_a = http_body(trace_a);
    EXPECT_TRUE(dsspy_test::json_valid(body_a)) << body_a;
    // The tenant's session renders as one tree: the root span plus
    // frame/fold/finalize children, annotated with the terminal state.
    EXPECT_NE(body_a.find("\"name\": \"serve.tenant\""), std::string::npos)
        << body_a;
    EXPECT_NE(body_a.find("\"name\": \"serve.fold\""), std::string::npos);
    EXPECT_NE(body_a.find("\"name\": \"serve.finalize\""),
              std::string::npos);
    EXPECT_NE(body_a.find("tenant=trace-a state=finished"),
              std::string::npos)
        << body_a;

    // The second tenant gets its own tree, not a copy of the first.
    const std::string body_b = http_body(http_get(
        daemon.address(),
        "/tenants/" + std::to_string(b.tenant_id) + "/trace"));
    EXPECT_TRUE(dsspy_test::json_valid(body_b));
    EXPECT_NE(body_b.find("tenant=trace-b state=finished"),
              std::string::npos);
    EXPECT_EQ(body_b.find("tenant=trace-a"), std::string::npos);
    EXPECT_NE(body_a, body_b);

    // The HTTP endpoint serves exactly what the API returns.
    const auto api_a = daemon.tenant_trace(a.tenant_id);
    ASSERT_TRUE(api_a.has_value());
    EXPECT_EQ(*api_a, body_a);
    EXPECT_FALSE(daemon.tenant_trace(999).has_value());
    const std::string missing =
        http_get(daemon.address(), "/tenants/999/trace");
    EXPECT_NE(missing.find("404"), std::string::npos) << missing;
    daemon.stop();

    // Leave the global recorder the way non-serve tests expect it.
    obs::TraceRecorder::global().set_enabled(false);
    obs::TraceRecorder::global().reset();
}

// --- unix transport & plan layer ----------------------------------------

TEST(ServeDaemon, UnixSocketRoundTripAndStaleReplacement) {
    const std::string sock_path = "/tmp/dsspy_test_serve.sock";
    // Plant a stale socket-path file (as a crashed daemon would leave
    // behind): a new daemon must probe it, find nobody answering, and
    // replace it.
    {
        std::ofstream stale(sock_path, std::ios::trunc);
        stale << "";
    }
    serve::DaemonOptions options;
    options.listen = "unix:" + sock_path;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const std::string csv = make_trace(2, 100, 4);
    const std::string path = write_temp_trace("unix", csv);
    const serve::ClientResult result =
        serve::push_trace_file(daemon.address(), path, "unix");
    ASSERT_TRUE(result.ok) << result.error;
    const auto report = daemon.tenant_report(result.tenant_id);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(*report, offline_report(csv));
    daemon.stop();
}

TEST(ServeDaemon, FailedBindNeverUnlinksALiveDaemonsSocket) {
    const std::string sock_path =
        testing::TempDir() + "dsspy_test_live.sock";
    serve::DaemonOptions options;
    options.listen = "unix:" + sock_path;
    serve::Daemon first(options);
    std::string error;
    ASSERT_TRUE(first.start(&error)) << error;

    // A second daemon on the same path must fail to bind (the probe
    // finds the first one alive) — and its failure path must leave the
    // first daemon's socket file alone.
    {
        serve::Daemon second(options);
        std::string second_error;
        EXPECT_FALSE(second.start(&second_error));
        EXPECT_NE(second_error.find("bind"), std::string::npos)
            << second_error;
    }

    // The first daemon is still reachable through the same socket file.
    const std::string csv = make_trace(2, 100, 6);
    const std::string path = write_temp_trace("live", csv);
    const serve::ClientResult result =
        serve::push_trace_file(first.address(), path, "live");
    ASSERT_TRUE(result.ok) << result.error;
    const auto report = first.tenant_report(result.tenant_id);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(*report, offline_report(csv));
    first.stop();
}

TEST(ServeDaemon, TerminalTenantsAreEvictedBeyondRetentionCap) {
    serve::DaemonOptions options = loopback_options();
    options.max_finished_tenants = 2;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    std::vector<std::uint32_t> ids;
    for (unsigned t = 0; t < 5; ++t) {
        const std::string csv = make_trace(2, 80, t);
        const std::string path =
            write_temp_trace("evict" + std::to_string(t), csv);
        const serve::ClientResult result = serve::push_trace_file(
            daemon.address(), path, "evict-" + std::to_string(t));
        ASSERT_TRUE(result.ok) << result.error;
        ids.push_back(result.tenant_id);
    }

    // Only the last max_finished_tenants terminal sessions survive;
    // older ones are gone from /tenants and their reports 404.
    EXPECT_EQ(daemon.tenants().size(), 2u);
    EXPECT_FALSE(daemon.tenant_report(ids[0]).has_value());
    EXPECT_FALSE(daemon.tenant_report(ids[2]).has_value());
    EXPECT_TRUE(daemon.tenant_report(ids[3]).has_value());
    EXPECT_TRUE(daemon.tenant_report(ids[4]).has_value());
    daemon.stop();
}

TEST(ServeDaemon, OversizedHelloNameIsTruncatedServerSide) {
    serve::Daemon daemon(loopback_options());
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // Hand-rolled hello claiming a 300-byte name: the reference client
    // truncates before sending, so bypass it to prove the daemon
    // enforces the 255-byte cap itself.
    serve::Socket sock = serve::connect_to(daemon.address(), &error);
    ASSERT_TRUE(sock.valid()) << error;
    std::string hello(serve::wire::kHelloMagic);
    serve::wire::put_u16(hello, serve::wire::kVersion);
    serve::wire::put_u16(hello, 0);
    serve::wire::put_u16(hello, 300);
    hello.append(300, 'n');
    ASSERT_TRUE(sock.write_all(hello));

    std::array<unsigned char, 10> accept{};  // DSOK ver:u16 id:u32
    ASSERT_EQ(sock.read_exact(accept.data(), accept.size()),
              serve::IoStatus::Ok);
    ASSERT_EQ(std::string(reinterpret_cast<const char*>(accept.data()), 4),
              serve::wire::kAcceptMagic);
    const std::uint32_t id = serve::wire::get_u32(accept.data() + 6);
    ASSERT_TRUE(
        sock.write_all(serve::wire::encode_frame_header(serve::wire::kFrameEnd, 0)));

    const serve::TenantSummary s = wait_terminal(daemon, id);
    EXPECT_EQ(s.state, serve::TenantState::Finished);
    EXPECT_EQ(s.name, std::string(serve::wire::kMaxTenantNameBytes, 'n'));
    daemon.stop();
}

TEST(ServeDaemon, ReportIdBeyondUint32Is404NotAliased) {
    serve::Daemon daemon(loopback_options());
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const std::string csv = make_trace(2, 80, 7);
    const std::string path = write_temp_trace("overflow", csv);
    const serve::ClientResult result =
        serve::push_trace_file(daemon.address(), path, "overflow");
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.tenant_id, 1u);

    // 4294967297 == 2^32 + 1 truncates to 1; it must 404, not alias
    // tenant 1's report.
    const std::string aliased =
        http_get(daemon.address(), "/tenants/4294967297/report");
    EXPECT_NE(aliased.find("404"), std::string::npos) << aliased;
    const std::string real =
        http_get(daemon.address(), "/tenants/1/report");
    EXPECT_NE(real.find("200 OK"), std::string::npos) << real;
    daemon.stop();
}

TEST(ServePlan, RunServeHonorsStopAndRunPushRoundTrips) {
    const std::string sock_path = "/tmp/dsspy_test_plan.sock";
    pipeline::ServePlan plan;
    plan.listen = "unix:" + sock_path;
    std::atomic<bool> stop{false};
    std::ostringstream serve_out;  // only read after join: run_serve
    std::ostringstream serve_err;  // writes it from the server thread
    std::thread server([&] {
        EXPECT_EQ(pipeline::run_serve(plan, serve_out, serve_err, stop),
                  pipeline::kExitOk);
    });
    // Ready when the socket answers (scripts poll the printed line
    // instead; in-process we must not read the stream concurrently).
    serve::Address address;
    address.kind = serve::Address::Kind::Unix;
    address.path = sock_path;
    for (int i = 0; i < 500; ++i) {
        std::string probe_error;
        if (serve::Socket probe = serve::connect_to(address, &probe_error);
            probe.valid())
            break;
        std::this_thread::sleep_for(10ms);
    }

    pipeline::PushPlan push;
    push.connect = "unix:" + sock_path;
    const std::string csv = make_trace(2, 80, 8);
    push.trace_path = write_temp_trace("plan", csv);
    std::ostringstream push_out;
    std::ostringstream push_err;
    EXPECT_EQ(pipeline::run_push(push, push_out, push_err),
              pipeline::kExitOk)
        << push_err.str();
    EXPECT_NE(push_out.str().find("finished"), std::string::npos);

    // Bad specs are usage errors; a dead endpoint is a runtime error.
    std::ostringstream sink_out;
    std::ostringstream sink_err;
    push.connect = "carrier-pigeon:coop";
    EXPECT_EQ(pipeline::run_push(push, sink_out, sink_err),
              pipeline::kExitUsageError);
    push.connect = "unix:/tmp/dsspy_no_such_daemon.sock";
    EXPECT_EQ(pipeline::run_push(push, sink_out, sink_err),
              pipeline::kExitRuntimeError);

    stop.store(true, std::memory_order_release);
    server.join();
    EXPECT_NE(serve_out.str().find("listening on unix:" + sock_path),
              std::string::npos)
        << serve_out.str();
    EXPECT_NE(serve_out.str().find("shut down after"), std::string::npos);

    pipeline::ServePlan bad;
    bad.listen = "smoke-signal";
    std::atomic<bool> stop2{false};
    EXPECT_EQ(pipeline::run_serve(bad, serve_out, serve_err, stop2),
              pipeline::kExitUsageError);
}

}  // namespace
