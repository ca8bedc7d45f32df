"""Lexical statistics of the ten paper languages, frozen for the benchmark's inputs.

A copy of ``repro.corpus.languages`` as it stood when the benchmark was
defined.  The benchmark generates its inputs from this copy (with
``textgen.py``), so a change to the program's corpus generator never changes
the workload a seed stands for.  Edit it only to redefine the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LanguageSpec", "LANGUAGES", "PAPER_LANGUAGES", "get_language", "CONFUSABLE_PAIRS"]


@dataclass(frozen=True)
class LanguageSpec:
    """Lexical material for one language's synthetic generator.

    Attributes
    ----------
    code:
        Two-letter language code (``"en"``, ``"fr"`` …).
    name:
        English name of the language (used in reports, mirroring Figure 4 labels).
    common_words:
        High-frequency function/legal words, ordered roughly by frequency.  These
        dominate the generated text the way function words dominate real corpora.
    syllables:
        Syllable inventory used to synthesise content (pseudo) words.
    suffixes:
        Characteristic word endings appended to a fraction of content words.
    word_syllables:
        ``(min, max)`` number of syllables in generated content words.
    related:
        Code of the most confusable sibling language, if any.
    """

    code: str
    name: str
    common_words: tuple[str, ...]
    syllables: tuple[str, ...]
    suffixes: tuple[str, ...] = ()
    word_syllables: tuple[int, int] = (2, 4)
    related: str | None = None


def _w(text: str) -> tuple[str, ...]:
    return tuple(text.split())


_ENGLISH = LanguageSpec(
    code="en",
    name="English",
    common_words=_w(
        "the of and to in that is was for it with as on be at by had not are but "
        "from or have an they which one you were all there would their we been has "
        "when who will more no if out so said what about into than them can only "
        "other new some could time these two may then do first any such like our "
        "over also after must through under between shall member states article "
        "regulation commission council directive accordance provisions measures "
        "community european union where pursuant thereof whereas adopted"
    ),
    syllables=_w(
        "a an ar as at con de di en er es in ing ion is it le li lo ment na ne ni "
        "no on or ou per pre pro ra re ri ro sa se si so sta su ta te ti to tra tu "
        "ty ul un ur us ver vi"
    ),
    suffixes=("tion", "ment", "ness", "ing", "ity", "able", "ive", "ed", "ly", "er"),
    word_syllables=(2, 4),
)

_FRENCH = LanguageSpec(
    code="fr",
    name="French",
    common_words=_w(
        "le la les de des du un une et est en que qui dans pour pas sur avec son ne "
        "se ce il elle au aux par plus ou mais nous vous ils comme tout fait cette "
        "ces leur sont aussi bien sans peut deux même autre après entre encore "
        "toujours très doit être ont leurs états membres article règlement "
        "commission conseil directive conformément dispositions mesures communauté "
        "européenne union présent considérant adopté vertu paragraphe"
    ),
    syllables=_w(
        "a ai an au bre ce ch con cou de di du en er es et eu fi ge in ier je la le "
        "li lo lu ma me mi mo ne ni no on ou pa pe pi po pre pro que re ri ro sa se "
        "si son su ta te ti tion to tou tra tu ve vi vou"
    ),
    suffixes=("tion", "ment", "eur", "euse", "ité", "ique", "aire", "ée", "ant", "elle"),
    word_syllables=(2, 4),
)

_SPANISH = LanguageSpec(
    code="es",
    name="Spanish",
    common_words=_w(
        "el la los las de del un una y en que es por con para no se su al lo como "
        "más pero sus le ya o este sí porque esta entre cuando muy sin sobre también "
        "me hasta hay donde quien desde todo nos durante todos uno les ni contra "
        "otros ese eso ante ellos esto antes algunos qué unos yo otro otras otra él "
        "tanto esa estos mucho nada poco ella estados miembros artículo reglamento "
        "comisión consejo directiva conformidad disposiciones medidas comunidad "
        "europea unión presente considerando adoptado apartado"
    ),
    syllables=_w(
        "a al an ar ba bre ca ce ci co cu da de di do du e en er es fi ga go i in "
        "ja la le li lo lu ma me mi mo mu na ne ni no nu o on pa pe pi po pre pro "
        "ra re ri ro sa se si so su ta te ti to tra tu u un va ve vi vo"
    ),
    suffixes=("ción", "miento", "idad", "able", "ante", "ado", "ida", "oso", "mente", "ario"),
    word_syllables=(2, 4),
    related="pt",
)

_PORTUGUESE = LanguageSpec(
    code="pt",
    name="Portuguese",
    common_words=_w(
        "o a os as de do da dos das um uma e em que é por com para não se seu sua "
        "ao como mais mas foi ele ela são ou quando muito nos já eu também só pelo "
        "pela até isso entre depois sem mesmo aos seus quem nas me esse eles essa "
        "num nem suas meu minha numa qual nós lhe este dele estados membros artigo "
        "regulamento comissão conselho directiva conformidade disposições medidas "
        "comunidade europeia união presente considerando adoptado número"
    ),
    syllables=_w(
        "a al an ar ba bre ca ce ci co cu da de di do du e em en er es fi ga go i "
        "in ja la le li lo lu ma me mi mo mu na ne ni no nu o on pa pe pi po pre "
        "pro ra re ri ro sa se si so su ta te ti to tra tu u um va ve vi vo ão ção"
    ),
    suffixes=("ção", "mento", "idade", "ável", "ante", "ado", "ida", "oso", "mente", "ário"),
    word_syllables=(2, 4),
    related="es",
)

_CZECH = LanguageSpec(
    code="cs",
    name="Czech",
    common_words=_w(
        "a se na je v že s z do o k i to jako za by ale po od pro tak jsou co nebo "
        "aby má podle jeho však bude byl který která které být jsem mezi již před "
        "také jen až více může byla bylo není než kdy když ještě pouze ze své tím "
        "proto tedy musí pokud další první členské státy článek nařízení komise "
        "rady směrnice souladu ustanovení opatření společenství evropské unie "
        "tohoto vzhledem přijato odstavec"
    ),
    syllables=_w(
        "a by ce či da de dě do du ho hla je ka ko ku la le lo lu ma me mi mo mu na "
        "ne ni no nou nu od po pra pro ra ro ru se sku sle sta sti stu ta te ti to "
        "tu va ve vi vo vy za ze zi"
    ),
    suffixes=("ost", "ení", "ání", "ový", "ného", "ství", "ace", "itel", "ovat", "ých"),
    word_syllables=(2, 4),
    related="sk",
)

_SLOVAK = LanguageSpec(
    code="sk",
    name="Slovak",
    common_words=_w(
        "a sa na je v že s z do o k i to ako za by ale po od pre tak sú čo alebo "
        "aby má podľa jeho však bude bol ktorý ktorá ktoré byť som medzi už pred "
        "tiež len až viac môže bola bolo nie než keď ešte iba zo svoje tým preto "
        "teda musí ak ďalší prvý členské štáty článok nariadenie komisia rady "
        "smernica súlade ustanovenia opatrenia spoločenstva európskej únie tohto "
        "vzhľadom prijaté odsek"
    ),
    syllables=_w(
        "a by ce či da de do du ho hla je ka ko ku la le lo lu ma me mi mo mu na ne "
        "ni no nou nu od po pra pro ra ro ru sa sku sle sta sti stu ta te ti to tu "
        "va ve vi vo vy za ze zi ou"
    ),
    suffixes=("osť", "enie", "anie", "ový", "ného", "stvo", "ácia", "iteľ", "ovať", "ých"),
    word_syllables=(2, 4),
    related="cs",
)

_DANISH = LanguageSpec(
    code="da",
    name="Danish",
    common_words=_w(
        "og i at det er en til af den på for med der de ikke som har et men om var "
        "han sig kan vi skal så også efter eller ved blev fra være havde hun nu "
        "over da når op deres under kun end mellem hvor alle denne dette andre må "
        "år mange man sin disse anden meget samt inden herunder medlemsstaterne "
        "artikel forordning kommissionen rådet direktiv overensstemmelse "
        "bestemmelser foranstaltninger fællesskabet europæiske union nærværende "
        "vedtaget stk"
    ),
    syllables=_w(
        "af an be da de den der di do el en er es et fi for ge gen han hed hol in "
        "ka ke kom la le lig lse ma me mel mod ne ning no og on op pe re ri ro sa "
        "se si ska ste sty te ti til und ve vi"
    ),
    suffixes=("hed", "else", "ning", "skab", "ende", "erne", "ede", "isk", "lig", "dom"),
    word_syllables=(2, 4),
    related="sv",
)

_SWEDISH = LanguageSpec(
    code="sv",
    name="Swedish",
    common_words=_w(
        "och i att det är en till av den på för med som har ett men om var han sig "
        "kan vi ska så också efter eller vid blev från vara hade hon nu över då när "
        "upp deras under endast än mellan där alla denna detta andra måste år många "
        "man sin dessa annan mycket samt inom härmed medlemsstaterna artikel "
        "förordning kommissionen rådet direktiv enlighet bestämmelser åtgärder "
        "gemenskapen europeiska unionen denna antagen punkt inte"
    ),
    syllables=_w(
        "af an be da de den der di do el en er es ett fi för ge gen han het hål in "
        "ka ke kom la le lig lse ma me mel mot ne ning no och on upp pe re ri ro sa "
        "se si ska ste sty te ti till und ve vi å"
    ),
    suffixes=("het", "else", "ning", "skap", "ande", "erna", "ade", "isk", "lig", "dom"),
    word_syllables=(2, 4),
    related="da",
)

_FINNISH = LanguageSpec(
    code="fi",
    name="Finnish",
    common_words=_w(
        "ja on ei että se oli hän mutta ovat joka kun niin myös tai jos vain kuin "
        "sen sitä ole mukaan voi tämä tämän kanssa sekä jotka olla mitä vielä jo "
        "siitä ennen jälkeen kaikki näin koska nyt aikana välillä osa vuoden olisi "
        "tulee tällä näiden jäsenvaltioiden artiklan asetuksen komissio neuvoston "
        "direktiivin mukaisesti säännösten toimenpiteet yhteisön euroopan unionin "
        "tämän ottaen hyväksytty kohta"
    ),
    syllables=_w(
        "a ai e en han hen hin i ii in ja jen ka kaa ke ki kin ko koo ku kuu la laa "
        "le li lla lle lta lu ma maa me mi min mme na nen ni nut o oi on pa pi po "
        "puu ra ri rä sa se si ssa ssä sta sti ta taa te ti tta tte tu tuu tä u uu "
        "va vi vä y yy ä ää ö"
    ),
    suffixes=("nen", "inen", "uus", "ssa", "ssä", "lla", "llä", "sta", "ksi", "ista"),
    word_syllables=(3, 5),
    related="et",
)

_ESTONIAN = LanguageSpec(
    code="et",
    name="Estonian",
    common_words=_w(
        "ja on ei et see oli ta aga kes kui nii ka või ainult selle seda ole järgi "
        "võib koos ning olla mida veel juba sellest enne pärast kõik sest nüüd ajal "
        "vahel osa aasta peaks tuleb sellel nende liikmesriikide artikli määruse "
        "komisjon nõukogu direktiivi kohaselt sätete meetmed ühenduse euroopa liidu "
        "käesoleva arvestades vastu lõige"
    ),
    syllables=_w(
        "a ai e en ha he hi i ii in ja jen ka kaa ke ki kin ko koo ku kuu la laa le "
        "li lla lle lta lu ma maa me mi min na ne ni nud o oi on pa pi po ra ri sa "
        "se si se sta sti ta taa te ti tte tu tuu u uu va vi õ ä ü ö"
    ),
    suffixes=("mine", "line", "us", "ses", "das", "ga", "ud", "iku", "ist", "tud"),
    word_syllables=(2, 4),
    related="fi",
)

#: all built-in language specifications, keyed by language code
LANGUAGES: dict[str, LanguageSpec] = {
    spec.code: spec
    for spec in (
        _CZECH,
        _SLOVAK,
        _DANISH,
        _SWEDISH,
        _SPANISH,
        _PORTUGUESE,
        _FINNISH,
        _ESTONIAN,
        _FRENCH,
        _ENGLISH,
    )
}

#: the ten languages used in the paper's evaluation (Section 5), in the paper's order
PAPER_LANGUAGES: tuple[str, ...] = ("cs", "sk", "da", "sv", "es", "pt", "fi", "et", "fr", "en")

#: the confusable pairs the paper's error analysis calls out
CONFUSABLE_PAIRS: tuple[tuple[str, str], ...] = (("es", "pt"), ("cs", "sk"), ("fi", "et"), ("da", "sv"))


def get_language(code: str) -> LanguageSpec:
    """Look up a language spec by two-letter code (raises ``KeyError`` with guidance)."""
    try:
        return LANGUAGES[code]
    except KeyError:
        raise KeyError(
            f"unknown language code {code!r}; available: {', '.join(sorted(LANGUAGES))}"
        ) from None
