#include "Spans.hh"

#include <cstdio>

#include "Bench.hh"

namespace aimbench
{

Tracer::Scope::Scope(Tracer &tracer, std::string name, long request)
    : tracer(tracer), index(static_cast<int>(tracer.spans.size()))
{
    tracer.spans.push_back(
        {std::move(name), hostNow(), 0.0, tracer.current, request});
    tracer.current = index;
}

Tracer::Scope::~Scope() { close(); }

void
Tracer::Scope::close()
{
    if (!open)
        return;
    open = false;
    auto &span = tracer.spans[static_cast<size_t>(index)];
    span.endS = hostNow();
    tracer.current = span.parent;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const auto &s : spans)
        if (s.name == name)
            sum += s.endS - s.startS;
    return sum;
}

double
Tracer::self(const std::string &name) const
{
    std::vector<double> children(spans.size(), 0.0);
    for (const auto &s : spans)
        if (s.parent >= 0)
            children[static_cast<size_t>(s.parent)] +=
                s.endS - s.startS;
    double sum = 0.0;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name)
            sum += spans[i].endS - spans[i].startS - children[i];
    return sum;
}

long
Tracer::count(const std::string &name) const
{
    long n = 0;
    for (const auto &s : spans)
        n += s.name == name;
    return n;
}

bool
Tracer::write(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "index,name,start_s,end_s,parent,request\n");
    for (size_t i = 0; i < spans.size(); ++i)
        std::fprintf(f, "%zu,%s,%.9f,%.9f,%d,%ld\n", i,
                     spans[i].name.c_str(), spans[i].startS,
                     spans[i].endS, spans[i].parent,
                     spans[i].request);
    return std::fclose(f) == 0;
}

} // namespace aimbench
