#include "trustlint/index.hh"

#include <cctype>

#include "trustlint/rules.hh"

namespace trust::lint {

namespace {

std::string
trimCopy(std::string_view s)
{
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return std::string(s);
}

/** Strip every space character (canonical lock-expression form). */
std::string
squeeze(std::string_view s)
{
    std::string out;
    for (const char c : s)
        if (!std::isspace(static_cast<unsigned char>(c)))
            out.push_back(c);
    return out;
}

/**
 * Words that can terminate a parameter segment but are types, not
 * parameter names (`void f(int)` declares no name).
 */
const std::set<std::string> &
typeWords()
{
    static const std::set<std::string> words = {
        "void",     "int",      "bool",     "char",     "float",
        "double",   "long",     "short",    "unsigned", "signed",
        "auto",     "size_t",   "int8_t",   "int16_t",  "int32_t",
        "int64_t",  "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
        "uintptr_t"};
    return words;
}

} // namespace

// ---------------------------------------------------------------- //
// Token helpers                                                     //
// ---------------------------------------------------------------- //

bool
isIdent(const Token &t, std::string_view text)
{
    return t.kind == TokKind::Identifier && t.text == text;
}

bool
isPunct(const Token &t, std::string_view text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

bool
isMemberAccess(const std::vector<Token> &toks, std::size_t i)
{
    return i > 0 &&
           (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->"));
}

std::size_t
skipAngles(const std::vector<Token> &toks, std::size_t i)
{
    if (i >= toks.size() || !isPunct(toks[i], "<"))
        return i;
    int depth = 0;
    while (i < toks.size()) {
        if (isPunct(toks[i], "<"))
            ++depth;
        else if (isPunct(toks[i], ">")) {
            if (--depth == 0)
                return i + 1;
        } else if (isPunct(toks[i], ";") || isPunct(toks[i], "{")) {
            return i; // not template arguments after all
        }
        ++i;
    }
    return i;
}

std::size_t
matchParen(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (isPunct(toks[i], "("))
            ++depth;
        else if (isPunct(toks[i], ")") && --depth == 0)
            return i;
    }
    return toks.size();
}

std::size_t
matchBracket(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (isPunct(toks[i], "["))
            ++depth;
        else if (isPunct(toks[i], "]") && --depth == 0)
            return i;
    }
    return toks.size();
}

const std::set<std::string> &
controlKeywords()
{
    static const std::set<std::string> kw = {
        "if",     "for",    "while",   "switch",   "catch",
        "return", "sizeof", "alignof", "decltype", "static_assert",
    };
    return kw;
}

// ---------------------------------------------------------------- //
// Annotation grammar                                                //
// ---------------------------------------------------------------- //

const std::set<std::string> &
allowableRules()
{
    static const std::set<std::string> rules = {
        "determinism",  "unordered-iter",      "trust-boundary",
        "lock-order",   "blocking-under-lock", "simd-intrinsics",
        "file-io",      "secret-flow",         "untrusted-taint",
    };
    return rules;
}

ParsedAnnotation
parseAnnotation(const Annotation &ann)
{
    ParsedAnnotation out;
    out.line = ann.line;
    const std::string body = trimCopy(ann.body);

    // Bare directives take an optional `-- <note>` trailer, e.g.
    // `// trustlint: secret -- d mod (p-1)`.
    const auto isBare = [&](const char *kw) {
        const std::string k(kw);
        if (body == k)
            return true;
        if (body.rfind(k, 0) != 0)
            return false;
        const std::string tail = trimCopy(body.substr(k.size()));
        return tail.rfind("--", 0) == 0 &&
               !trimCopy(tail.substr(2)).empty();
    };
    if (isBare("untrusted-input")) {
        out.kind = ParsedAnnotation::Kind::UntrustedInput;
        return out;
    }
    if (isBare("secret")) {
        out.kind = ParsedAnnotation::Kind::Secret;
        return out;
    }
    if (isBare("validator")) {
        out.kind = ParsedAnnotation::Kind::Validator;
        return out;
    }

    if (body.rfind("allow(", 0) == 0) {
        const std::size_t close = body.find(')');
        if (close == std::string::npos) {
            out.error = "allow(...) is missing ')'";
            return out;
        }
        std::string list = body.substr(6, close - 6);
        std::size_t pos = 0;
        while (pos <= list.size()) {
            const std::size_t comma = list.find(',', pos);
            const std::string rule = trimCopy(
                list.substr(pos, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - pos));
            if (rule.empty()) {
                out.error = "allow() has an empty rule name";
                return out;
            }
            if (!allowableRules().count(rule)) {
                out.error = "allow() names unknown or unsuppressable "
                            "rule '" +
                            rule + "'";
                return out;
            }
            out.allowRules.insert(rule);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        const std::string tail = trimCopy(body.substr(close + 1));
        if (tail.rfind("--", 0) != 0 ||
            trimCopy(tail.substr(2)).empty()) {
            out.error = "allow() requires a reason: "
                        "`allow(rule) -- <why this is sound>`";
            return out;
        }
        out.kind = ParsedAnnotation::Kind::Allow;
        return out;
    }

    if (body.rfind("lock-order(", 0) == 0) {
        const std::size_t close = body.rfind(')');
        if (close == std::string::npos || close < 11) {
            out.error = "lock-order(...) is missing ')'";
            return out;
        }
        const std::string inner = body.substr(11, close - 11);
        const std::size_t arrow = inner.find("->");
        if (arrow == std::string::npos) {
            out.error = "lock-order() needs `first -> second`";
            return out;
        }
        out.lockFirst = squeeze(inner.substr(0, arrow));
        out.lockSecond = squeeze(inner.substr(arrow + 2));
        if (out.lockFirst.empty() || out.lockSecond.empty()) {
            out.error = "lock-order() needs `first -> second`";
            return out;
        }
        out.kind = ParsedAnnotation::Kind::LockOrder;
        return out;
    }

    out.error = "unknown trustlint directive '" + body + "'";
    return out;
}

void
applySuppressions(const LexedFile &file, std::vector<Finding> &findings)
{
    // rule -> lines covered by a well-formed allow() (the annotation
    // line itself, for trailing comments, and the line below it). An
    // allow attached to a function head — same two-line window the
    // function annotations use — widens to the whole body, so one
    // justified suppression covers an inherently variable-time
    // algorithm instead of a line-per-finding comment trail.
    std::map<std::string, std::set<int>> allowed;
    std::vector<FunctionDef> funcs;
    bool haveFuncs = false;
    for (const Annotation &raw : file.annotations) {
        const ParsedAnnotation ann = parseAnnotation(raw);
        if (ann.kind != ParsedAnnotation::Kind::Allow)
            continue;
        for (const std::string &rule : ann.allowRules) {
            allowed[rule].insert(ann.line);
            allowed[rule].insert(ann.line + 1);
        }
        if (!haveFuncs) {
            funcs = extractFunctions(file);
            haveFuncs = true;
        }
        for (const FunctionDef &fn : funcs) {
            const int head = file.tokens[fn.stmtStart].line;
            const int open = file.tokens[fn.parenOpen].line;
            if (ann.line < head - 2 || ann.line > open)
                continue;
            // Code on the annotation's line or between it and the
            // head claims the annotation for itself (a field, a
            // declaration): line-level suppression only.
            bool claimed = false;
            for (const Token &t : file.tokens)
                if (t.line >= ann.line && t.line < head) {
                    claimed = true;
                    break;
                }
            if (claimed)
                continue;
            const int last = file.tokens[fn.bodyClose].line;
            for (const std::string &rule : ann.allowRules)
                for (int l = head; l <= last; ++l)
                    allowed[rule].insert(l);
            break;
        }
    }
    if (allowed.empty())
        return;
    std::erase_if(findings, [&](const Finding &f) {
        const auto it = allowed.find(f.rule);
        return it != allowed.end() && it->second.count(f.line);
    });
}

// ---------------------------------------------------------------- //
// Function extraction                                               //
// ---------------------------------------------------------------- //

namespace {

/**
 * Parameter names for the group (open, close). A parameter's name
 * is its segment's final token — identifier, not a type keyword,
 * not the tail of a qualified type — with any `= default` trimmed.
 */
std::vector<std::string>
extractParams(const std::vector<Token> &toks, std::size_t open,
              std::size_t close)
{
    std::vector<std::string> params;
    if (close <= open + 1)
        return params; // ()

    std::size_t segStart = open + 1;
    auto flush = [&](std::size_t segEnd) {
        // Trim a default argument: cut at the first top-level `=`.
        std::size_t end = segEnd;
        for (std::size_t j = segStart; j < segEnd; ++j) {
            if (isPunct(toks[j], "(")) {
                j = matchParen(toks, j);
            } else if (isPunct(toks[j], "<")) {
                const std::size_t past = skipAngles(toks, j);
                j = past > j ? past - 1 : j;
            } else if (isPunct(toks[j], "{")) {
                int d = 0;
                for (; j < segEnd; ++j) {
                    if (isPunct(toks[j], "{"))
                        ++d;
                    else if (isPunct(toks[j], "}") && --d == 0)
                        break;
                }
            } else if (isPunct(toks[j], "=")) {
                end = j;
                break;
            }
        }
        std::string name;
        if (end > segStart) {
            const Token &last = toks[end - 1];
            if (last.kind == TokKind::Identifier &&
                !typeWords().count(last.text) &&
                !(end - 1 > segStart && isPunct(toks[end - 2], "::")))
                name = last.text;
        }
        params.push_back(name);
        segStart = segEnd + 1;
    };

    for (std::size_t i = open + 1; i < close; ++i) {
        if (isPunct(toks[i], "(")) {
            i = matchParen(toks, i);
        } else if (isPunct(toks[i], "<")) {
            const std::size_t past = skipAngles(toks, i);
            i = past > i ? past - 1 : i;
        } else if (isPunct(toks[i], "[")) {
            i = matchBracket(toks, i);
        } else if (isPunct(toks[i], ",")) {
            flush(i);
        }
    }
    flush(close);
    return params;
}

} // namespace

std::vector<FunctionDef>
extractFunctions(const LexedFile &file)
{
    const std::vector<Token> &toks = file.tokens;
    std::vector<FunctionDef> out;

    std::size_t stmtStart = 0;
    std::size_t candName = toks.size(); // index of candidate name
    std::size_t candClose = toks.size();
    bool sawEq = false;
    bool tailOk = true;
    bool tailFree = false; // after `->` or `:` anything goes
    int parenDepth = 0;

    auto reset = [&](std::size_t next) {
        stmtStart = next;
        candName = toks.size();
        candClose = toks.size();
        sawEq = false;
        tailOk = true;
        tailFree = false;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (isPunct(t, "(")) {
            if (parenDepth == 0 && !sawEq) {
                if (i > stmtStart &&
                    toks[i - 1].kind == TokKind::Identifier &&
                    !controlKeywords().count(toks[i - 1].text)) {
                    candName = i - 1;
                } else {
                    candName = toks.size();
                }
                candClose = toks.size();
                tailOk = true;
                tailFree = false;
            }
            ++parenDepth;
            continue;
        }
        if (isPunct(t, ")")) {
            if (--parenDepth == 0)
                candClose = i;
            continue;
        }
        if (parenDepth > 0)
            continue;

        if (isPunct(t, ";") || isPunct(t, "}")) {
            reset(i + 1);
            continue;
        }
        if (isPunct(t, "{")) {
            const bool isFunction = candName < toks.size() &&
                                    candClose < toks.size() && tailOk;
            if (!isFunction) {
                reset(i + 1);
                continue;
            }
            FunctionDef fn;
            fn.name = toks[candName].text;
            fn.stmtStart = stmtStart;
            fn.nameIndex = candName;
            fn.parenOpen = candName + 1;
            fn.parenClose = matchParen(toks, fn.parenOpen);
            fn.bodyOpen = i;
            fn.line = toks[candName].line;
            if (candName >= 2 && isPunct(toks[candName - 1], "::") &&
                toks[candName - 2].kind == TokKind::Identifier)
                fn.qualifier = toks[candName - 2].text;
            fn.params = extractParams(toks, fn.parenOpen, fn.parenClose);
            // Skip the body (nested braces included).
            int depth = 0;
            std::size_t j = i;
            for (; j < toks.size(); ++j) {
                if (isPunct(toks[j], "{"))
                    ++depth;
                else if (isPunct(toks[j], "}") && --depth == 0)
                    break;
            }
            fn.bodyClose = j < toks.size() ? j : toks.size() - 1;
            out.push_back(fn);
            i = fn.bodyClose;
            reset(i + 1);
            continue;
        }

        if (isPunct(t, "="))
            sawEq = true;
        if (candClose < toks.size()) {
            // Between `)` and a potential `{`.
            if (isPunct(t, "->") || isPunct(t, ":")) {
                tailFree = true;
            } else if (!tailFree) {
                const bool allowed =
                    isIdent(t, "const") || isIdent(t, "noexcept") ||
                    isIdent(t, "override") || isIdent(t, "final") ||
                    isIdent(t, "mutable");
                if (!allowed)
                    tailOk = false;
            }
        }
    }

    // Attach annotations sitting directly above (within two lines of)
    // a function head, or trailing on the head itself. A comment
    // trailing on an earlier code line belongs to that line (a field
    // declaration, say), not to the function below it.
    std::set<int> codeLines;
    for (const Token &t : toks)
        codeLines.insert(t.line);
    for (const Annotation &raw : file.annotations) {
        const ParsedAnnotation ann = parseAnnotation(raw);
        const bool fnKind =
            ann.kind == ParsedAnnotation::Kind::UntrustedInput ||
            ann.kind == ParsedAnnotation::Kind::Secret ||
            ann.kind == ParsedAnnotation::Kind::Validator;
        if (!fnKind)
            continue;
        for (FunctionDef &fn : out) {
            const int head = toks[fn.stmtStart].line;
            const int open = toks[fn.parenOpen].line;
            // Any code on the annotation's own line or between it
            // and this head claims the annotation (a field or a
            // free declaration), so it is not ours.
            bool claimed = false;
            for (int l = ann.line; l < head && !claimed; ++l)
                claimed = codeLines.count(l) != 0;
            if (claimed)
                continue;
            if (ann.line >= head - 2 && ann.line <= open) {
                if (ann.kind == ParsedAnnotation::Kind::UntrustedInput)
                    fn.untrustedInput = true;
                else if (ann.kind == ParsedAnnotation::Kind::Secret)
                    fn.secretReturn = true;
                else
                    fn.validator = true;
                break;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------- //
// Repo-wide symbol index                                            //
// ---------------------------------------------------------------- //

std::string
pathStem(const std::string &relPath)
{
    const std::size_t slash = relPath.rfind('/');
    const std::size_t dot = relPath.rfind('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return relPath;
    return relPath.substr(0, dot);
}

std::vector<std::size_t>
SymbolIndex::resolve(const std::string &qualifier,
                     const std::string &name) const
{
    if (!qualifier.empty()) {
        // The standard library is never a repo namespace: std::find
        // must not link to a repo function that happens to be named
        // find.
        if (qualifier == "std" || qualifier.rfind("std::", 0) == 0)
            return {};
        const auto it = byQualified.find(qualifier + "::" + name);
        if (it != byQualified.end())
            return it->second;
        // Unknown qualifier (a namespace alias, ...): fall through to
        // bare-name linkage, mirroring how the lexer cannot tell
        // namespaces from classes.
    }
    const auto it = byName.find(name);
    if (it != byName.end())
        return it->second;
    return {};
}

namespace {

/**
 * Names declared on a `// trustlint: secret` line that no function
 * head consumed. A line containing `name(` declares a secret-source
 * *function*; otherwise every declarator-position identifier (one
 * followed by `;`, `,`, `=`, `)`, `[` or `{`, outside template
 * argument lists) names a secret field or variable.
 */
struct SecretDecl
{
    std::vector<std::string> names;
    bool isFunction = false;
};

SecretDecl
secretDeclOnLine(const std::vector<Token> &toks, int line)
{
    SecretDecl out;
    // Collect the token range for the line.
    std::size_t first = toks.size(), last = toks.size();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].line == line) {
            if (first == toks.size())
                first = i;
            last = i + 1;
        } else if (toks[i].line > line && first != toks.size()) {
            break;
        }
    }
    if (first == toks.size())
        return out;

    // Function-declaration form: `ReturnType name(args);`.
    for (std::size_t i = first; i + 1 < last; ++i) {
        if (toks[i].kind == TokKind::Identifier &&
            isPunct(toks[i + 1], "(") &&
            !controlKeywords().count(toks[i].text)) {
            out.isFunction = true;
            out.names.push_back(toks[i].text);
            return out;
        }
    }

    // Field/variable declarator form.
    for (std::size_t i = first; i < last; ++i) {
        if (isPunct(toks[i], "<")) {
            const std::size_t past = skipAngles(toks, i);
            i = past > i ? past - 1 : i;
            continue;
        }
        if (toks[i].kind != TokKind::Identifier || i + 1 >= toks.size())
            continue;
        const Token &next = toks[i + 1];
        if (isPunct(next, ";") || isPunct(next, ",") ||
            isPunct(next, "=") || isPunct(next, ")") ||
            isPunct(next, "[") || isPunct(next, "{"))
            out.names.push_back(toks[i].text);
    }
    return out;
}

} // namespace

SymbolIndex
buildIndex(const std::vector<LexedFile> &files,
           const std::vector<std::string> &relPaths)
{
    SymbolIndex idx;
    idx.files = &files;
    idx.relPaths = relPaths;

    std::vector<std::vector<FunctionDef>> perFile(files.size());
    for (std::size_t f = 0; f < files.size(); ++f) {
        perFile[f] = extractFunctions(files[f]);
        for (const FunctionDef &fn : perFile[f])
            idx.functions.push_back({f, fn});
    }

    for (std::size_t i = 0; i < idx.functions.size(); ++i) {
        const FunctionDef &fn = idx.functions[i].def;
        idx.byName[fn.name].push_back(i);
        if (!fn.qualifier.empty())
            idx.byQualified[fn.qualifier + "::" + fn.name].push_back(i);
        if (fn.secretReturn)
            idx.secretSourceFunctions.insert(fn.name);
        if (fn.validator)
            idx.validatorFunctions.insert(fn.name);
        if (fn.untrustedInput)
            idx.untrustedSourceFunctions.insert(fn.name);
    }

    // Declaration-level `secret` / `validator` / `untrusted-input`
    // annotations (ones not consumed by a function head above —
    // fields, variables, and header-side function declarations).
    for (std::size_t f = 0; f < files.size(); ++f) {
        const LexedFile &file = files[f];
        const std::string stem = pathStem(relPaths[f]);
        std::set<int> codeLines;
        for (const Token &t : file.tokens)
            codeLines.insert(t.line);
        for (const Annotation &raw : file.annotations) {
            const ParsedAnnotation ann = parseAnnotation(raw);
            const bool secret =
                ann.kind == ParsedAnnotation::Kind::Secret;
            const bool validator =
                ann.kind == ParsedAnnotation::Kind::Validator;
            const bool untrusted =
                ann.kind == ParsedAnnotation::Kind::UntrustedInput;
            if (!secret && !validator && !untrusted)
                continue;
            // Consumed by a function head only under the same claim
            // rule extractFunctions applies: nothing but blank and
            // comment lines between the annotation and the head.
            bool consumed = false;
            for (const FunctionDef &fn : perFile[f]) {
                const int head = file.tokens[fn.stmtStart].line;
                const int open = file.tokens[fn.parenOpen].line;
                if (ann.line < head - 2 || ann.line > open)
                    continue;
                bool claimed = false;
                for (int l = ann.line; l < head && !claimed; ++l)
                    claimed = codeLines.count(l) != 0;
                if (!claimed) {
                    consumed = true;
                    break;
                }
            }
            if (consumed)
                continue;
            // Prefer declarators on the annotation's own line
            // (trailing comment); else the line below.
            SecretDecl decl = secretDeclOnLine(file.tokens, ann.line);
            if (decl.names.empty())
                decl = secretDeclOnLine(file.tokens, ann.line + 1);
            for (const std::string &name : decl.names) {
                if (validator) {
                    if (decl.isFunction)
                        idx.validatorFunctions.insert(name);
                } else if (untrusted) {
                    if (decl.isFunction)
                        idx.untrustedSourceFunctions.insert(name);
                } else if (decl.isFunction) {
                    idx.secretSourceFunctions.insert(name);
                } else {
                    idx.secretNamesByStem[stem].insert(name);
                    idx.secretMembers.insert(name);
                }
            }
        }
    }
    return idx;
}

} // namespace trust::lint
