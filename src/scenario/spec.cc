#include "scenario/spec.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace pipellm {
namespace scenario {

namespace {

std::string
trim(const std::string &s)
{
    auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
tokens(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

/** Shortest text that round-trips the double exactly. */
std::string
fmtDouble(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    PIPELLM_ASSERT(res.ec == std::errc(), "double format failed");
    return std::string(buf, res.ptr);
}

/** Levenshtein distance, for did-you-mean suggestions. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t sub = diag + (a[i - 1] != b[j - 1]);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
        }
    }
    return row[b.size()];
}

// --- Enum spellings: one name table per enum, read by parse and dump.

template <typename E>
struct Spelling
{
    E value;
    const char *name;
};

std::vector<Spelling<ScenarioKind>>
spellings(ScenarioKind)
{
    std::vector<Spelling<ScenarioKind>> t;
    for (const auto &k : scenarioKinds())
        t.push_back({k.kind, k.name});
    return t;
}

std::vector<Spelling<SystemMode>>
spellings(SystemMode)
{
    std::vector<Spelling<SystemMode>> t;
    for (const auto &m : systemModes())
        t.push_back({m.mode, m.key});
    return t;
}

std::vector<Spelling<serving::RoutePolicy>>
spellings(serving::RoutePolicy)
{
    return {{serving::RoutePolicy::RoundRobin, "round_robin"},
            {serving::RoutePolicy::LeastLoaded, "least_loaded"}};
}

std::vector<Spelling<PipeSpec::Kind>>
spellings(PipeSpec::Kind)
{
    return {{PipeSpec::Kind::Kv, "kv"},
            {PipeSpec::Kind::Offload, "offload"}};
}

template <typename E>
const char *
spell(E value)
{
    for (const auto &s : spellings(value)) {
        if (s.value == value)
            return s.name;
    }
    return "?";
}

/** @p name of every item in @p items, joined by @p sep. */
template <typename Items, typename Name>
std::string
join(const Items &items, const char *sep, Name name)
{
    std::string out;
    for (const auto &item : items) {
        if (!out.empty())
            out += sep;
        out += name(item);
    }
    return out;
}

template <typename E>
std::string
joinSpellings()
{
    return join(spellings(E{}), "/", [](const auto &s) { return s.name; });
}

/** The spelling of an @p E closest to @p name by edit distance. */
template <typename E>
const char *
nearestSpelling(const std::string &name)
{
    return std::ranges::min(spellings(E{}), {}, [&](const auto &s) {
               return editDistance(name, s.name);
           }).name;
}

// --- Value codecs, one per operation, dispatched on the field type.

/** from_chars over the whole token; doubles must also be finite. */
template <typename T>
bool
readNumber(const std::string &s, T &out)
{
    T v{};
    auto res = std::from_chars(s.data(), s.data() + s.size(), v);
    bool ok = res.ec == std::errc() && res.ptr == s.data() + s.size();
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(v);
    if (ok)
        out = v;
    return ok;
}

template <typename T>
constexpr bool isList = false;
template <typename T>
constexpr bool isList<std::vector<T>> = true;

/** Records hold spaces, so a list of them repeats its key per line. */
template <typename T>
constexpr bool repeatsKey = std::is_same_v<T, std::vector<SoakPhaseSpec>>;

/** Parse @p text into @p out; returns the problem, "" = parsed. */
template <typename T>
std::string
parseValue(const std::string &key, const std::string &text, T &out)
{
    auto bad = [&](const char *expect) {
        return logConcat("bad value '", text, "' for ", key,
                         " (expected ", expect, ")");
    };
    if constexpr (std::is_same_v<T, std::string>) {
        out = text;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (text == "on" || text == "true" || text == "1")
            out = true;
        else if (text == "off" || text == "false" || text == "0")
            out = false;
        else
            return bad("on/off");
    } else if constexpr (std::is_enum_v<T>) {
        for (const auto &s : spellings(T{})) {
            if (text == s.name) {
                out = s.value;
                return "";
            }
        }
        return logConcat("unknown ", key, " '", text, "' (known: ",
                         joinSpellings<T>(), "; did you mean '",
                         nearestSpelling<T>(text), "'?)");
    } else if constexpr (std::is_same_v<T, SoakPhaseSpec>) {
        auto parts = tokens(text);
        if (parts.size() != 3 || !readNumber(parts[0], out.requests) ||
            !readNumber(parts[1], out.requests_quick) ||
            !readNumber(parts[2], out.rate_per_device))
            return bad("'<requests> <requests_quick> <rate_per_device>'");
    } else if constexpr (isList<T>) {
        // Every token parses, or the field keeps its old value.
        T parsed;
        for (const auto &tok : tokens(text)) {
            typename T::value_type v{};
            auto problem = parseValue(key, tok, v);
            if (!problem.empty())
                return problem;
            parsed.push_back(v);
        }
        out = std::move(parsed);
    } else if (!readNumber(text, out)) {
        return bad(std::is_floating_point_v<T> ? "a finite number"
                                               : "a non-negative integer");
    }
    return "";
}

/** The canonical text of @p v (doubles shortest-round-trip). */
template <typename T>
std::string
formatValue(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return v;
    } else if constexpr (std::is_same_v<T, bool>) {
        return v ? "on" : "off";
    } else if constexpr (std::is_enum_v<T>) {
        return spell(v);
    } else if constexpr (std::is_same_v<T, SoakPhaseSpec>) {
        return logConcat(v.requests, " ", v.requests_quick, " ",
                         fmtDouble(v.rate_per_device));
    } else if constexpr (isList<T>) {
        return join(v, " ",
                    [](const auto &item) { return formatValue(item); });
    } else if constexpr (std::is_floating_point_v<T>) {
        return fmtDouble(v);
    } else {
        return std::to_string(v);
    }
}

/** The numbers in @p v, for the range rules. */
template <typename T>
std::vector<double>
numbersOf(const T &v)
{
    std::vector<double> out;
    if constexpr (std::is_arithmetic_v<T>) {
        out.push_back(double(v));
    } else if constexpr (isList<T>) {
        for (const auto &item : v)
            std::ranges::copy(numbersOf(item), std::back_inserter(out));
    }
    return out;
}

// --- The key table.

/** Per-field range rule, applied by validate() to every value. */
enum class Range : std::uint8_t
{
    Any,
    NonNegative,
    Positive,
    AtLeastOne,
    Probability,
};

/** What is wrong with @p v under @p range; nullptr = in range. */
const char *
rangeProblem(Range range, double v)
{
    switch (range) {
      case Range::Any:
        return nullptr;
      case Range::NonNegative:
        return v < 0 ? "is negative" : nullptr;
      case Range::Positive:
        return v <= 0 ? "must be positive" : nullptr;
      case Range::AtLeastOne:
        return v < 1 ? "must be at least 1" : nullptr;
      case Range::Probability:
        return v < 0 || v > 1 ? "is not a probability within 0..1"
                              : nullptr;
    }
    return nullptr;
}

// The record a section's keys live in, for a mutable or a const spec;
// @p host indexes spec.hosts for `[host <name>]` sections.

struct Whole
{
    static auto &of(auto &spec, std::size_t) { return spec; }
};

template <auto Member>
struct Part
{
    static auto &of(auto &spec, std::size_t) { return spec.*Member; }
};

struct Host
{
    static auto &of(auto &spec, std::size_t h) { return spec.hosts[h]; }
};

/** One `key = value` of the format, bound to the field it sets. */
struct Entry
{
    const char *name;
    Range range;
    /** Each line appends one element (`phase`), so the key repeats. */
    bool repeats;
    /** Parse one line's value into the field; "" = ok. */
    std::string (*parse)(ScenarioSpec &, std::size_t host,
                         const std::string &key, const std::string &text);
    /** The field's canonical text, one entry per line to dump. */
    std::vector<std::string> (*lines)(const ScenarioSpec &,
                                      std::size_t host);
    /** The field's numbers, for the range rule. */
    std::vector<double> (*numbers)(const ScenarioSpec &,
                                   std::size_t host);
};

/** A table row: the field a key sets, its name and range rule. */
template <auto Field>
struct Key
{
    const char *name;
    Range range = Range::Any;
};

/** Bind @p decl to its field inside the section's @p Record. */
template <typename Record, auto Field>
Entry
bind(Key<Field> decl)
{
    using T = std::remove_cvref_t<decltype(
        Record::of(std::declval<ScenarioSpec &>(), 0).*Field)>;
    return {
        decl.name,
        decl.range,
        repeatsKey<T>,
        [](ScenarioSpec &s, std::size_t h, const std::string &key,
           const std::string &text) {
            auto &field = Record::of(s, h).*Field;
            if constexpr (repeatsKey<T>) {
                typename T::value_type item{};
                auto problem = parseValue(key, text, item);
                if (problem.empty())
                    field.push_back(item);
                return problem;
            } else {
                return parseValue(key, text, field);
            }
        },
        [](const ScenarioSpec &s, std::size_t h) {
            const auto &field = Record::of(s, h).*Field;
            std::vector<std::string> lines;
            if constexpr (repeatsKey<T>) {
                for (const auto &item : field)
                    lines.push_back(formatValue(item));
            } else if constexpr (isList<T>) {
                // An empty list is left out, unless leaving it out
                // would parse back as a non-empty default.
                using Rec = std::remove_cvref_t<decltype(Record::of(s, h))>;
                if (!field.empty() || !(Rec{}.*Field).empty())
                    lines.push_back(formatValue(field));
            } else {
                lines.push_back(formatValue(field));
            }
            return lines;
        },
        [](const ScenarioSpec &s, std::size_t h) {
            return numbersOf(Record::of(s, h).*Field);
        },
    };
}

/** One `[section]` of the format and the keys it accepts. */
struct Section
{
    const char *name;
    /** `[host <name>]`: one instance per spec.hosts entry. */
    bool per_host;
    /** Whether dumpScenario() writes the section. */
    bool (*emit)(const ScenarioSpec &);
    std::vector<Entry> keys;
};

template <typename Record, auto... Fields>
Section
section(const char *name, bool (*emit)(const ScenarioSpec &),
        Key<Fields>... keys)
{
    return {name, std::is_same_v<Record, Host>, emit,
            {bind<Record>(keys)...}};
}

bool
always(const ScenarioSpec &)
{
    return true;
}

/** Written only when it differs from the defaults. */
template <auto Member>
bool
ifSet(const ScenarioSpec &spec)
{
    return spec.*Member != std::remove_cvref_t<decltype(spec.*Member)>{};
}

bool
disaggEmitted(const ScenarioSpec &spec)
{
    return ifSet<&ScenarioSpec::disagg>(spec) ||
           spec.kind == ScenarioKind::Disagg;
}

/** The scenario format: every section and key, in dump order. */
const std::vector<Section> &
format()
{
    using R = Range;
    using S = ScenarioSpec;
    static const std::vector<Section> sections = {
        section<Whole>("scenario", always,
                       Key<&S::name>{"name"},
                       Key<&S::kind>{"kind"},
                       Key<&S::csv>{"csv"}),
        section<Part<&S::cluster>>(
            "cluster", always,
            Key<&ClusterSpec::devices>{"devices", R::AtLeastOne},
            Key<&ClusterSpec::devices_quick>{"devices_quick", R::AtLeastOne},
            Key<&ClusterSpec::modes>{"modes"},
            Key<&ClusterSpec::policy>{"policy"}),
        section<Part<&S::device>>(
            "device", always,
            Key<&DeviceSpec::spec>{"spec"},
            Key<&DeviceSpec::channel_sample_limit>{"channel_sample_limit",
                                                   R::AtLeastOne}),
        section<Part<&S::engine>>(
            "engine", always,
            Key<&EngineSpec::model>{"model"},
            Key<&EngineSpec::parallel_sampling>{"parallel_sampling",
                                                R::AtLeastOne}),
        section<Part<&S::pipe>>("pipe", always,
                                Key<&PipeSpec::kind>{"kind"}),
        section<Part<&S::trace>>(
            "trace", always,
            Key<&TraceSpec::dataset>{"dataset"},
            Key<&TraceSpec::max_len>{"max_len"},
            Key<&TraceSpec::seed>{"seed"},
            Key<&TraceSpec::rate_per_device>{"rate_per_device", R::Positive},
            Key<&TraceSpec::requests_per_device>{"requests_per_device"},
            Key<&TraceSpec::requests_per_device_quick>{
                "requests_per_device_quick"}),
        section<Host>(
            "host", always,
            Key<&HostVariantSpec::shared_crypto_lanes>{"shared_crypto_lanes"},
            Key<&HostVariantSpec::bridge_gbps>{"bridge_gbps", R::NonNegative},
            Key<&HostVariantSpec::bridge_latency_us>{"bridge_latency_us",
                                                     R::NonNegative},
            Key<&HostVariantSpec::pipe_max_lane_lead_ms>{
                "pipe_max_lane_lead_ms"}),
        section<Part<&S::disagg>>(
            "disagg", disaggEmitted,
            Key<&DisaggSpec::prefill_replicas>{"prefill_replicas"},
            Key<&DisaggSpec::chunk_kib>{"chunk_kib", R::Positive},
            Key<&DisaggSpec::pipeline_depth>{"pipeline_depth",
                                             R::AtLeastOne}),
        section<Part<&S::faults>>(
            "faults", ifSet<&S::faults>,
            Key<&FaultSpec::seed>{"seed"},
            Key<&FaultSpec::tag_corruption_rate>{"tag_corruption_rate",
                                                 R::Probability},
            Key<&FaultSpec::copy_stall_rate>{"copy_stall_rate",
                                             R::Probability},
            Key<&FaultSpec::lane_fault_rate>{"lane_fault_rate",
                                             R::Probability},
            Key<&FaultSpec::replica_crash_rate>{"replica_crash_rate",
                                                R::NonNegative},
            Key<&FaultSpec::replica_restart_rate>{"replica_restart_rate",
                                                  R::NonNegative},
            Key<&FaultSpec::spdm_rekey_ms>{"spdm_rekey_ms", R::NonNegative},
            Key<&FaultSpec::warmup_probe_kib>{"warmup_probe_kib",
                                              R::NonNegative},
            Key<&FaultSpec::migration_tag_rate>{"migration_tag_rate",
                                                R::Probability},
            Key<&FaultSpec::migration_stall_rate>{"migration_stall_rate",
                                                  R::Probability},
            Key<&FaultSpec::dest_crash_rate>{"dest_crash_rate",
                                             R::Probability},
            Key<&FaultSpec::migration_stall_timeout_us>{
                "migration_stall_timeout_us", R::Positive},
            Key<&FaultSpec::max_migration_attempts>{"max_migration_attempts",
                                                    R::AtLeastOne},
            Key<&FaultSpec::storm_start_s>{"storm_start_s", R::NonNegative},
            Key<&FaultSpec::storm_end_s>{"storm_end_s", R::NonNegative},
            Key<&FaultSpec::storm_multiplier>{"storm_multiplier",
                                              R::NonNegative},
            Key<&FaultSpec::crash_devices>{"crash_devices"},
            Key<&FaultSpec::scales>{"scales", R::NonNegative},
            Key<&FaultSpec::scales_quick>{"scales_quick", R::NonNegative},
            Key<&FaultSpec::dip_window_s>{"dip_window_s", R::Positive},
            Key<&FaultSpec::dip_recover_frac>{"dip_recover_frac",
                                              R::Probability}),
        section<Part<&S::admission>>(
            "admission", ifSet<&S::admission>,
            Key<&AdmissionSpec::shed>{"shed"},
            Key<&AdmissionSpec::service_cost_per_sec>{"service_cost_per_sec",
                                                      R::NonNegative},
            Key<&AdmissionSpec::max_outstanding_cost>{
                "max_outstanding_cost"}),
        section<Part<&S::slo>>(
            "slo", ifSet<&S::slo>,
            Key<&SloSpec::floor_s>{"floor_s", R::NonNegative},
            Key<&SloSpec::per_token_ms>{"per_token_ms", R::NonNegative}),
        section<Part<&S::soak>>(
            "soak", ifSet<&S::soak>,
            Key<&SoakSpec::phases>{"phase"}, // one line per phase
            Key<&SoakSpec::goodput_window_s>{"goodput_window_s",
                                             R::Positive},
            Key<&SoakSpec::recover_frac>{"recover_frac", R::Probability}),
        section<Part<&S::overload>>(
            "overload", ifSet<&S::overload>,
            Key<&OverloadSpec::multipliers>{"multipliers", R::Positive},
            Key<&OverloadSpec::multipliers_quick>{"multipliers_quick",
                                                  R::Positive},
            Key<&OverloadSpec::requests>{"requests"},
            Key<&OverloadSpec::requests_quick>{"requests_quick"},
            Key<&OverloadSpec::rate_per_device>{"rate_per_device",
                                                R::Positive},
            Key<&OverloadSpec::slo_floor_s>{"slo_floor_s", R::NonNegative},
            Key<&OverloadSpec::slo_per_token_ms>{"slo_per_token_ms",
                                                 R::NonNegative},
            Key<&OverloadSpec::service_cost_per_sec>{"service_cost_per_sec",
                                                     R::NonNegative}),
    };
    return sections;
}

/** `[name]`, or `[host <name>]` for host instance @p host. */
std::string
label(const Section &sec, const ScenarioSpec &spec, std::size_t host)
{
    if (sec.per_host)
        return "[host " + spec.hosts[host].name + "]";
    return std::string("[") + sec.name + "]";
}

/** The section a header's tokens open; nullptr if none. */
const Section *
findSection(const std::vector<std::string> &parts)
{
    for (const auto &sec : format()) {
        if (parts.size() == (sec.per_host ? 2u : 1u) &&
            parts[0] == sec.name)
            return &sec;
    }
    return nullptr;
}

std::string
knownSections()
{
    return join(format(), ", ", [](const Section &sec) {
        return std::string(sec.name) + (sec.per_host ? " <name>" : "");
    });
}

const char *const knownModels[] = {"opt13b", "opt30b", "opt66b",
                                   "opt175b", "opt175b-int4",
                                   "llama7b"};
const char *const knownDatasets[] = {"sharegpt", "alpaca",
                                     "ultrachat"};
const char *const knownSpecs[] = {"h100"};

} // namespace

const char *
toString(ScenarioKind kind)
{
    return spell(kind);
}

const std::vector<ScenarioKindInfo> &
scenarioKinds()
{
    static const std::vector<ScenarioKindInfo> kinds = {
        {ScenarioKind::ClusterScale, "cluster_scale",
         "replica-scaling sweep: host variants x modes x devices"},
        {ScenarioKind::FaultSweep, "fault_sweep",
         "fault-intensity sweep: modes x devices x fault scales"},
        {ScenarioKind::Soak, "soak",
         "chaos soak + overload sweep through the chaos harness"},
        {ScenarioKind::Disagg, "disagg",
         "disaggregated prefill/decode sweep with encrypted KV "
         "migration"},
    };
    return kinds;
}

std::string
nearestScenarioKind(const std::string &name)
{
    return nearestSpelling<ScenarioKind>(name);
}

const char *
toString(PipeSpec::Kind kind)
{
    return spell(kind);
}

const std::vector<unsigned> &
ScenarioSpec::deviceAxis(bool quick) const
{
    if (quick && !cluster.devices_quick.empty())
        return cluster.devices_quick;
    return cluster.devices;
}

const std::vector<double> &
ScenarioSpec::scaleAxis(bool quick) const
{
    if (quick && !faults.scales_quick.empty())
        return faults.scales_quick;
    return faults.scales;
}

std::size_t
ScenarioSpec::requestsPerDevice(bool quick) const
{
    if (quick && trace.requests_per_device_quick > 0)
        return trace.requests_per_device_quick;
    return trace.requests_per_device;
}

std::vector<HostVariantSpec>
ScenarioSpec::hostAxis() const
{
    if (!hosts.empty())
        return hosts;
    return {HostVariantSpec{}};
}

ParseResult
parseScenario(const std::string &text, const std::string &origin)
{
    ParseResult result;
    ScenarioSpec &spec = result.spec;
    int line_no = 0;
    auto err = [&](const auto &...args) {
        result.errors.push_back(
            logConcat(origin, ":", line_no, ": ", args...));
    };

    const Section *section = nullptr;
    std::size_t host = 0;
    /** Line each singleton section was opened on. */
    std::map<std::string, int> opened;
    /** Line each key of the current section was set on. */
    std::map<std::string, int> set_on;

    std::istringstream is(text);
    std::string raw;
    while (std::getline(is, raw)) {
        ++line_no;
        std::string line = trim(raw.substr(0, raw.find('#')));
        if (line.empty())
            continue;

        if (line.front() == '[') {
            section = nullptr;
            set_on.clear();
            if (line.back() != ']') {
                err("malformed section header '", line, "'");
                continue;
            }
            auto inner = trim(line.substr(1, line.size() - 2));
            auto parts = tokens(inner);
            section = findSection(parts);
            if (!section) {
                err("unknown section [", inner, "] (known: ",
                    knownSections(), ")");
            } else if (section->per_host) {
                spec.hosts.push_back(HostVariantSpec{});
                spec.hosts.back().name = parts[1];
                host = spec.hosts.size() - 1;
            } else if (auto [first, fresh] =
                           opened.emplace(section->name, line_no);
                       !fresh) {
                err("repeated section [", section->name,
                    "] (first opened on line ", first->second,
                    "): merge the two blocks");
            }
            continue;
        }

        auto eq = line.find('=');
        if (eq == std::string::npos) {
            err("expected 'key = value', got '", line, "'");
            continue;
        }
        if (!section) {
            err("'", line, "' outside any known section");
            continue;
        }
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        auto k = std::ranges::find(section->keys, key, &Entry::name);
        if (k == section->keys.end()) {
            err("unknown key '", key, "' in ",
                label(*section, spec, host), " (known: ",
                join(section->keys, ", ",
                     [](const Entry &k) { return k.name; }),
                ")");
            continue;
        }
        if (!k->repeats) {
            auto [first, fresh] = set_on.emplace(key, line_no);
            if (!fresh) {
                err("repeated key '", key, "' in ",
                    label(*section, spec, host), " (first set on line ",
                    first->second, ")");
                continue;
            }
        }
        auto problem = k->parse(spec, host, key, value);
        if (!problem.empty())
            err(problem);
    }

    if (spec.csv.empty() && !spec.name.empty())
        spec.csv = spec.name + ".csv";
    return result;
}

ParseResult
loadScenario(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        ParseResult bad;
        bad.errors.push_back(path + ": cannot open scenario file");
        return bad;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parseScenario(text.str(), path);
}

std::string
dumpScenario(const ScenarioSpec &spec)
{
    std::ostringstream os;
    for (const auto &sec : format()) {
        if (!sec.emit(spec))
            continue;
        std::size_t n = sec.per_host ? spec.hosts.size() : 1;
        for (std::size_t h = 0; h < n; ++h) {
            if (os.tellp() > 0)
                os << "\n";
            os << label(sec, spec, h) << "\n";
            for (const auto &k : sec.keys) {
                for (const auto &text : k.lines(spec, h))
                    os << k.name << " = " << text << "\n";
            }
        }
    }
    return os.str();
}

std::vector<std::string>
ScenarioSpec::validate() const
{
    std::vector<std::string> errors;
    auto err = [&](auto... args) {
        errors.push_back(logConcat(args...));
    };

    // Per-field range rules, straight from the key table.
    for (const auto &sec : format()) {
        for (std::size_t h = 0; h < (sec.per_host ? hosts.size() : 1); ++h) {
            for (const auto &k : sec.keys) {
                if (k.range == Range::Any)
                    continue;
                for (double v : k.numbers(*this, h)) {
                    if (const char *problem = rangeProblem(k.range, v))
                        err(label(sec, *this, h), " ", k.name, " ",
                            problem, " (got ", fmtDouble(v), ")");
                }
            }
        }
    }

    if (name.empty())
        err("[scenario] name is empty: every scenario needs a name");
    if (csv.empty())
        err("[scenario] csv is empty: name the output CSV file");

    // --- cluster ---
    if (cluster.devices.empty()) {
        err("[cluster] devices is empty: list at least one replica "
            "count (e.g. 'devices = 1 2 4')");
    }
    unsigned max_devices = 0;
    for (unsigned n : cluster.devices)
        max_devices = std::max(max_devices, n);
    for (unsigned n : cluster.devices_quick) {
        if (n > max_devices)
            err("[cluster] devices_quick names ", n,
                " replicas but the full axis tops out at ",
                max_devices, ": quick must be a scaled-down run");
    }
    if (cluster.modes.empty())
        err("[cluster] modes is empty: list at least one system (",
            joinSpellings<SystemMode>(), ")");

    // --- device / engine / trace presets ---
    auto preset = [&](const char *what, const std::string &value,
                      const auto &known) {
        if (std::ranges::find(known, value) == std::end(known))
            err(what, " '", value, "' is unknown (known: ",
                join(known, "/", [](const char *k) { return k; }), ")");
    };
    preset("[device] spec", device.spec, knownSpecs);
    preset("[engine] model", engine.model, knownModels);
    preset("[trace] dataset", trace.dataset, knownDatasets);
    if (kind != ScenarioKind::Soak && trace.requests_per_device == 0)
        err("[trace] requests_per_device must be positive for a ",
            toString(kind), " scenario");

    // --- host variants ---
    for (const auto &h : hosts) {
        for (const auto &other : hosts) {
            if (&other != &h && other.name == h.name) {
                err("[host ", h.name,
                    "] appears twice: variant names must be unique");
                break;
            }
        }
    }

    // --- faults ---
    if (faults.storm_end_s < faults.storm_start_s)
        err("[faults] storm window ends (",
            fmtDouble(faults.storm_end_s), "s) before it starts (",
            fmtDouble(faults.storm_start_s), "s)");
    for (unsigned d : faults.crash_devices) {
        if (max_devices > 0 && d >= max_devices) {
            err("[faults] crash_devices names device ", d,
                " but the largest cluster in [cluster] devices has ",
                max_devices, " replicas (ids 0..", max_devices - 1,
                ")");
        }
    }

    // --- soak / overload ---
    for (const auto &p : soak.phases) {
        if (p.requests == 0)
            err("[soak] phase with 0 requests contributes nothing");
        if (p.rate_per_device <= 0)
            err("[soak] phase rate_per_device must be positive");
    }
    if (overload.requests > 0 && overload.multipliers.empty())
        err("[overload] requests is set but multipliers is empty: "
            "list the rate multipliers to sweep");

    // --- kind-specific shape ---
    if (kind != ScenarioKind::ClusterScale && !hosts.empty())
        err("[host] variants only apply to kind = cluster_scale: a ",
            toString(kind), " scenario runs on private host resources");
    if (kind != ScenarioKind::Soak &&
        (soak != SoakSpec{} || overload != OverloadSpec{}))
        err("[soak]/[overload] sections only apply to kind = soak");
    if (kind != ScenarioKind::Disagg) {
        if (disagg != DisaggSpec{})
            err("a [disagg] section only applies to kind = disagg");
        if (faults.migration_tag_rate != 0 ||
            faults.migration_stall_rate != 0 ||
            faults.dest_crash_rate != 0) {
            err("[faults] migration rates only fire on kind = disagg "
                "runs: nothing migrates in a ", toString(kind),
                " scenario");
        }
    }
    if ((kind == ScenarioKind::FaultSweep ||
         kind == ScenarioKind::Disagg) &&
        scaleAxis(false).empty())
        err("a ", toString(kind), " scenario needs [faults] scales (use "
            "'scales = 0' for a fault-free sweep)");

    unsigned min_devices = max_devices;
    for (unsigned n : cluster.devices)
        min_devices = std::min(min_devices, n);
    switch (kind) {
      case ScenarioKind::ClusterScale:
        if (faults != FaultSpec{})
            err("a cluster_scale scenario does not inject faults: "
                "remove [faults] or set kind = fault_sweep");
        break;
      case ScenarioKind::FaultSweep:
        break;
      case ScenarioKind::Soak:
        if (soak.phases.empty())
            err("a soak scenario needs at least one [soak] phase "
                "('phase = <requests> <requests_quick> <rate>')");
        if (cluster.modes.size() != 1 ||
            (cluster.modes[0] != SystemMode::Cc &&
             cluster.modes[0] != SystemMode::Pipe)) {
            err("a soak scenario serves one system: set [cluster] "
                "modes to exactly one of Cc or Pipe");
        }
        if (cluster.devices.size() != 1)
            err("a soak scenario runs one fixed cluster: [cluster] "
                "devices must name exactly one replica count");
        break;
      case ScenarioKind::Disagg:
        if (min_devices < 2 && !cluster.devices.empty())
            err("a disagg scenario splits replicas into prefill and "
                "decode roles: every [cluster] devices entry must be "
                "at least 2");
        if (disagg.prefill_replicas > 0 && min_devices >= 2 &&
            disagg.prefill_replicas >= min_devices) {
            err("[disagg] prefill_replicas (", disagg.prefill_replicas,
                ") leaves no decode replica in the smallest cluster (",
                min_devices, " devices): lower it or drop it (0 = "
                "half the cluster)");
        }
        break;
    }

    return errors;
}

} // namespace scenario
} // namespace pipellm
