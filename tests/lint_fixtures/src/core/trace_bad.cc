// Fixture: R3 obs-macro — raw trace emit outside src/obs.
namespace fixture {

struct Tracer
{
    void ioSubmit(int, int, int) {}
};

void
emitRaw(Tracer *tracer)
{
    tracer->ioSubmit(1, 2, 3);
}

}  // namespace fixture
