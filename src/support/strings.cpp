#include "support/strings.hpp"

#include <cctype>
#include <cstdio>

namespace dsspy::support {

std::vector<std::string> split(std::string_view text, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            return out;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string> tokenize(std::string_view text) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        const std::size_t start = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        if (i > start) out.emplace_back(text.substr(start, i - start));
    }
    return out;
}

std::string_view trim(std::string_view text) {
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
    return text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view text) {
    std::string out(text);
    for (char& ch : out)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i != 0) out += sep;
        out += parts[i];
    }
    return out;
}

std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to) {
    if (from.empty()) return std::string(text);
    std::string out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(from, start);
        if (pos == std::string_view::npos) {
            out += text.substr(start);
            return out;
        }
        out += text.substr(start, pos - start);
        out += to;
        start = pos + from.size();
    }
}

std::size_t count_occurrences(std::string_view haystack,
                              std::string_view needle) {
    if (needle.empty()) return 0;
    std::size_t count = 0;
    std::size_t pos = 0;
    while ((pos = haystack.find(needle, pos)) != std::string_view::npos) {
        ++count;
        pos += needle.size();
    }
    return count;
}

std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char ch : text) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(ch));
            out += buf;
        } else {
            out += ch;
        }
    }
    return out;
}

std::string csv_escape(std::string_view field) {
    if (field.find_first_of(",\"\n") == std::string_view::npos)
        return std::string(field);
    std::string out = "\"";
    for (const char ch : field) {
        if (ch == '"') out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

}  // namespace dsspy::support
